#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/flags.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace e2e {
namespace {

// ---- Types -----------------------------------------------------------------

TEST(Types, UnitConversions) {
  EXPECT_DOUBLE_EQ(SecToMs(2.5), 2500.0);
  EXPECT_DOUBLE_EQ(MsToSec(2500.0), 2.5);
  EXPECT_DOUBLE_EQ(MsToSec(SecToMs(7.25)), 7.25);
}

TEST(Types, PageTypeNames) {
  EXPECT_EQ(ToString(PageType::kType2), "Page Type 2");
  EXPECT_EQ(Index(PageType::kType3), 2);
}

// ---- Rng -------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Rng a(5), b(5), c(6);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  Rng a2(5);
  EXPECT_NE(a2.NextU64(), c.NextU64());
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
    const auto n = rng.UniformInt(-2, 2);
    EXPECT_GE(n, -2);
    EXPECT_LE(n, 2);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(2);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(10.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 3.0, 0.1);
}

TEST(Rng, TruncatedNormalRespectsFloor) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(rng.TruncatedNormal(0.0, 5.0, 1.0), 1.0);
  }
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(4);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.Categorical(weights)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.015);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.015);
  EXPECT_THROW(rng.Categorical(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(rng.Categorical(std::vector<double>{-1.0, 2.0}),
               std::invalid_argument);
}

// The pre-summed form draws what the one-argument form draws, and
// validating a total throws what the one-argument form throws.
TEST(Rng, PresummedCategoricalMatchesOneArgumentForm) {
  Rng weights_rng(11);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::vector<double> weights(
        static_cast<std::size_t>(weights_rng.UniformInt(2, 64)));
    for (double& w : weights) w = weights_rng.LogNormal(0.0, 1.0);
    weights[0] = 0.0;  // A zero weight is valid and never drawn.
    const double total = Rng::CategoricalTotal(weights);
    Rng a(seed);
    Rng b(seed);
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(a.Categorical(weights), b.Categorical(weights, total))
          << "seed " << seed << " draw " << i;
    }
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }

  Rng rng(12);
  for (const std::vector<double>& bad :
       {std::vector<double>{-1.0, 2.0}, std::vector<double>{0.0, 0.0}}) {
    std::string from_draw;
    std::string from_total;
    try {
      rng.Categorical(bad);
    } catch (const std::invalid_argument& e) {
      from_draw = e.what();
    }
    try {
      Rng::CategoricalTotal(bad);
    } catch (const std::invalid_argument& e) {
      from_total = e.what();
    }
    EXPECT_FALSE(from_total.empty());
    EXPECT_EQ(from_total, from_draw);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7};
  auto shuffled = items;
  rng.Shuffle(shuffled);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, items);
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng parent(6);
  Rng a = parent.Fork(1);
  Rng b = parent.Fork(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

// Rng's engine is MT19937-64 as the standard defines it, so std::mt19937_64
// is the oracle: every word, every Fork and every helper must equal what
// the std engine gives, drawn through the same std distribution. Each seed
// runs through at least four 312-word twists.
constexpr std::uint64_t kOracleSeeds[] = {0, 1, 5, 20190819,
                                          ~std::uint64_t{0}};
constexpr int kOracleWords = 4 * 312 + 7;

TEST(Rng, WordsEqualStdMt19937_64) {
  for (const std::uint64_t seed : kOracleSeeds) {
    Rng rng(seed);
    std::mt19937_64 oracle(seed);
    for (int i = 0; i < kOracleWords; ++i) {
      ASSERT_EQ(rng.NextU64(), oracle()) << "seed " << seed << " word " << i;
    }
  }
}

TEST(Rng, ForkEqualsStdMt19937_64) {
  for (const std::uint64_t seed : kOracleSeeds) {
    Rng parent(seed);
    std::mt19937_64 oracle(seed);
    for (const std::uint64_t stream : {0ULL, 1ULL, 2ULL, 7ULL}) {
      Rng child = parent.Fork(stream);
      std::mt19937_64 child_oracle(oracle() ^
                                   (0x9e3779b97f4a7c15ULL * (stream + 1)));
      for (int i = 0; i < kOracleWords; ++i) {
        ASSERT_EQ(child.NextU64(), child_oracle())
            << "seed " << seed << " stream " << stream << " word " << i;
      }
    }
    EXPECT_EQ(parent.NextU64(), oracle()) << "seed " << seed;
  }
}

TEST(Rng, HelpersEqualStdDistributions) {
  const std::vector<double> weights = {0.5, 0.0, 2.0, 1.25, 0.25};
  const double total = Rng::CategoricalTotal(weights);
  for (const std::uint64_t seed : kOracleSeeds) {
    Rng rng(seed);
    std::mt19937_64 e(seed);
    // Each round draws at least ten words, so 200 rounds cross the twist
    // several times with every helper's words interleaved.
    for (int round = 0; round < 200; ++round) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " round " << round);
      ASSERT_EQ(rng.Uniform(-3.0, 7.5),
                std::uniform_real_distribution<double>(-3.0, 7.5)(e));
      ASSERT_EQ(rng.UniformInt(-5, 1000),
                std::uniform_int_distribution<std::int64_t>(-5, 1000)(e));
      ASSERT_EQ(rng.UniformInt(0, std::numeric_limits<std::int64_t>::max()),
                std::uniform_int_distribution<std::int64_t>(
                    0, std::numeric_limits<std::int64_t>::max())(e));
      ASSERT_EQ(rng.Normal(10.0, 3.0),
                std::normal_distribution<double>(10.0, 3.0)(e));
      double truncated = 1.0;
      for (int attempt = 0; attempt < 64; ++attempt) {
        const double x = std::normal_distribution<double>(0.0, 5.0)(e);
        if (x >= 1.0) {
          truncated = x;
          break;
        }
      }
      ASSERT_EQ(rng.TruncatedNormal(0.0, 5.0, 1.0), truncated);
      ASSERT_EQ(rng.LogNormal(0.5, 0.8),
                std::lognormal_distribution<double>(0.5, 0.8)(e));
      ASSERT_EQ(rng.ExponentialMean(250.0),
                std::exponential_distribution<double>(1.0 / 250.0)(e));
      ASSERT_EQ(rng.Bernoulli(0.3), std::bernoulli_distribution(0.3)(e));
      double x = std::uniform_real_distribution<double>(0.0, total)(e);
      std::size_t index = weights.size() - 1;
      for (std::size_t i = 0; i < weights.size(); ++i) {
        x -= weights[i];
        if (x < 0.0) {
          index = i;
          break;
        }
      }
      ASSERT_EQ(rng.Categorical(weights), index);
    }
    std::vector<int> shuffled(100);
    std::iota(shuffled.begin(), shuffled.end(), 0);
    std::vector<int> expected = shuffled;
    rng.Shuffle(shuffled);
    for (std::size_t i = expected.size(); i > 1; --i) {
      const auto j = std::uniform_int_distribution<std::int64_t>(
          0, static_cast<std::int64_t>(i) - 1)(e);
      std::swap(expected[i - 1], expected[static_cast<std::size_t>(j)]);
    }
    EXPECT_EQ(shuffled, expected) << "seed " << seed;
    EXPECT_EQ(rng.NextU64(), e()) << "seed " << seed;
  }
}

// ---- Flags -----------------------------------------------------------------

TEST(Flags, ParsesKeyValueAndBare) {
  const char* argv[] = {"prog", "--alpha=1.5", "--name=abc", "--verbose",
                        "--count=7"};
  const Flags flags(5, argv, {"alpha", "name", "verbose", "count", "missing"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 1.5);
  EXPECT_EQ(flags.GetString("name", ""), "abc");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("count", 0), 7);
  EXPECT_TRUE(flags.Has("alpha"));
  EXPECT_FALSE(flags.Has("missing"));
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
}

TEST(Flags, BoolFalseValues) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=yes"};
  const Flags flags(4, argv, {"a", "b", "c"});
  EXPECT_FALSE(flags.GetBool("a", true));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
}

TEST(Flags, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(Flags(2, argv, {}), std::invalid_argument);
}

// The message of the std::invalid_argument `get` throws, or "" when it does
// not throw.
template <typename Get>
std::string ParseError(Get get) {
  try {
    get();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Flags, NumbersMustParseWhole) {
  const char* argv[] = {"prog",         "--shards=4x", "--rate=1.5ms",
                        "--empty=",     "--big=99999999999",
                        "--huge=1e999", "--space=4 ",  "--neg=-3",
                        "--exp=2.5e-3", "--nan=nan",   "--inf=inf",
                        "--ninf=-inf"};
  const Flags flags(12, argv, {"shards", "rate", "empty", "big", "huge",
                               "space", "neg", "exp", "nan", "inf", "ninf"});
  // A partial parse is an error naming the flag, not the prefix's value.
  EXPECT_NE(ParseError([&] { flags.GetInt("shards", 1); }).find("--shards"),
            std::string::npos);
  EXPECT_NE(ParseError([&] { flags.GetDouble("rate", 0.0); }).find("--rate"),
            std::string::npos);
  EXPECT_NE(ParseError([&] { flags.GetInt("space", 0); }).find("--space"),
            std::string::npos);
  // Empty and out-of-range values throw std::invalid_argument naming the
  // flag too, not std::stoi's bare error or std::out_of_range.
  for (const char* key : {"empty", "big"}) {
    EXPECT_NE(ParseError([&] { flags.GetInt(key, 0); })
                  .find("--" + std::string(key)),
              std::string::npos)
        << key;
  }
  EXPECT_NE(ParseError([&] { flags.GetDouble("empty", 0.0); }).find("--empty"),
            std::string::npos);
  EXPECT_NE(ParseError([&] { flags.GetDouble("huge", 0.0); }).find("--huge"),
            std::string::npos);
  // std::stod parses these whole, but no flag takes a non-finite value.
  for (const char* key : {"nan", "inf", "ninf"}) {
    EXPECT_NE(ParseError([&] { flags.GetDouble(key, 0.0); })
                  .find("--" + std::string(key)),
              std::string::npos)
        << key;
  }
  // Whole values still parse, signs and exponents included.
  EXPECT_EQ(flags.GetInt("neg", 0), -3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("exp", 0.0), 2.5e-3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("neg", 0.0), -3.0);
}

TEST(Flags, RejectsUnknownKeysNamingThem) {
  // A typo fails loudly instead of running with defaults: `--shard=4`
  // where the binary accepts `shards` is an error naming `--shard`.
  const char* typo[] = {"prog", "--shard=4"};
  EXPECT_NE(ParseError([&] { Flags(2, typo, {"shards", "volume"}); })
                .find("--shard "),
            std::string::npos);
  // Bare flags are checked the same way, and a binary that takes no flags
  // rejects every one.
  const char* bare[] = {"prog", "--verbose"};
  EXPECT_THROW(Flags(2, bare, {"shards"}), std::invalid_argument);
  EXPECT_THROW(Flags(2, typo, {}), std::invalid_argument);
  // Accepted keys parse as before.
  const char* ok[] = {"prog", "--shards=4"};
  const Flags flags(2, ok, {"shards", "volume"});
  EXPECT_EQ(flags.GetInt("shards", 1), 4);
  EXPECT_FALSE(flags.Has("volume"));
  // Reading a key the binary never accepted is a bug in the binary.
  EXPECT_THROW(flags.Has("shard"), std::logic_error);
}

// ---- TextTable ---------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  TextTable table({"A", "Column B"});
  table.AddRow({"1", "x"});
  table.AddRow({"22", "yy"});
  std::ostringstream out;
  table.Render(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("A   Column B"), std::string::npos);
  EXPECT_NE(text.find("22  yy"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTable, RendersCsv) {
  TextTable table({"a", "b"});
  table.AddRow({"1", "2"});
  std::ostringstream out;
  table.RenderCsv(out);
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Int(1234567), "1,234,567");
  EXPECT_EQ(TextTable::Int(-1234), "-1,234");
  EXPECT_EQ(TextTable::Int(12), "12");
  EXPECT_EQ(TextTable::Pct(12.34), "12.3%");
}

TEST(TextTable, RowSizeValidation) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.AddRow({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(AsciiChart, ProducesRequestedHeight) {
  const std::vector<double> ys = {0, 1, 2, 3, 4, 5, 4, 3, 2, 1};
  const std::string chart = AsciiChart(ys, 5, 40);
  int lines = 0;
  for (char c : chart) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 6);  // 5 rows + footer.
  EXPECT_TRUE(AsciiChart({}, 5, 40).empty());
}

// ---- Log ---------------------------------------------------------------------

TEST(Log, LevelGating) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kWarn);
  EXPECT_FALSE(LogEnabled(LogLevel::kDebug));
  EXPECT_FALSE(LogEnabled(LogLevel::kInfo));
  EXPECT_TRUE(LogEnabled(LogLevel::kWarn));
  EXPECT_TRUE(LogEnabled(LogLevel::kError));
  SetLogLevel(LogLevel::kOff);
  EXPECT_FALSE(LogEnabled(LogLevel::kError));
  EXPECT_FALSE(LogEnabled(LogLevel::kOff));
  SetLogLevel(original);
}

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (const int workers : {1, 2, 4}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.workers(), workers);
    std::vector<int> hits(257, 0);
    pool.ParallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                            [](int h) { return h == 1; }))
        << "workers=" << workers;
  }
}

TEST(ThreadPool, OutputSlotsMatchSerialComputation) {
  ThreadPool pool(4);
  std::vector<double> parallel_out(1000, 0.0);
  pool.ParallelFor(parallel_out.size(), [&](std::size_t i) {
    parallel_out[i] = std::sqrt(static_cast<double>(i) * 3.0 + 1.0);
  });
  for (std::size_t i = 0; i < parallel_out.size(); ++i) {
    EXPECT_EQ(parallel_out[i], std::sqrt(static_cast<double>(i) * 3.0 + 1.0));
  }
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::vector<std::size_t> sums;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::size_t> values(64, 0);
    pool.ParallelFor(values.size(), [&](std::size_t i) { values[i] = i; });
    std::size_t sum = 0;
    for (std::size_t v : values) sum += v;
    sums.push_back(sum);
  }
  for (std::size_t sum : sums) EXPECT_EQ(sum, 64u * 63u / 2u);
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, RethrowsLowestIndexedException) {
  // Several invocations throw; the caller must observe the lowest-indexed
  // failure no matter which worker ran it.
  ThreadPool pool(4);
  try {
    pool.ParallelFor(100, [&](std::size_t i) {
      if (i >= 7 && i % 3 == 1) {  // First throwing index is 7.
        throw std::runtime_error("index " + std::to_string(i));
      }
    });
    FAIL() << "ParallelFor did not propagate the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 7");
  }
  // The pool survives a throwing job.
  std::vector<int> hits(8, 0);
  pool.ParallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPool, InvalidWorkerCountThrows) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
  EXPECT_THROW(ThreadPool(-2), std::invalid_argument);
  EXPECT_GE(ThreadPool::DefaultWorkers(), 1);
  EXPECT_LE(ThreadPool::DefaultWorkers(), 16);
}

}  // namespace
}  // namespace e2e

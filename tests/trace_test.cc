#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <vector>

#include "stats/fairness.h"
#include "stats/summary.h"
#include "trace/generator.h"
#include "trace/io.h"
#include "trace/record.h"
#include "trace/replay.h"
#include "trace/windows.h"
#include "util/rng.h"
#include "util/types.h"

namespace e2e {
namespace {

Trace SmallTrace(double scale = 0.01, std::uint64_t seed = 1) {
  TraceGenParams params;
  params.seed = seed;
  params.scale = scale;
  return TraceGenerator(params).Generate();
}

TEST(TraceGenerator, DeterministicInSeed) {
  const Trace a = SmallTrace(0.002, 7);
  const Trace b = SmallTrace(0.002, 7);
  const Trace c = SmallTrace(0.002, 8);
  ASSERT_EQ(a.records.size(), b.records.size());
  EXPECT_EQ(a.records[10].external_delay_ms, b.records[10].external_delay_ms);
  EXPECT_NE(a.records.size(), c.records.size());
}

TEST(TraceGenerator, SortedByArrival) {
  const Trace trace = SmallTrace(0.005);
  for (std::size_t i = 1; i < trace.records.size(); ++i) {
    EXPECT_LE(trace.records[i - 1].arrival_ms, trace.records[i].arrival_ms);
  }
}

TEST(TraceGenerator, Table1RatiosHold) {
  const Trace trace = SmallTrace(0.02);
  const TraceSummary summary = Summarize(trace);
  // Page loads per session ~1.17-1.25 (Table 1: 682.6/564.8 = 1.21).
  const auto& p1 = summary.per_page[0];
  EXPECT_GT(p1.page_loads, 10000u);
  const double loads_per_session =
      static_cast<double>(p1.page_loads) / static_cast<double>(p1.web_sessions);
  EXPECT_NEAR(loads_per_session, 1.21, 0.06);
  // Unique users slightly below sessions (521.5/564.8 = 0.92).
  const double users_per_session =
      static_cast<double>(p1.unique_users) /
      static_cast<double>(p1.web_sessions);
  EXPECT_NEAR(users_per_session, 0.92, 0.05);
  // Volume ratios across page types follow Table 1 (682.6 : 314.1 : 600.2).
  const double r12 = static_cast<double>(summary.per_page[0].page_loads) /
                     static_cast<double>(summary.per_page[1].page_loads);
  EXPECT_NEAR(r12, 682.6 / 314.1, 0.25);
  const double r13 = static_cast<double>(summary.per_page[0].page_loads) /
                     static_cast<double>(summary.per_page[2].page_loads);
  EXPECT_NEAR(r13, 682.6 / 600.2, 0.2);
}

TEST(TraceGenerator, ExternalDelayClassSplitMatchesFig4) {
  const Trace trace = SmallTrace(0.02);
  const auto type1 = trace.FilterByPage(PageType::kType1);
  std::size_t fast = 0, sensitive = 0, slow = 0;
  for (const auto& r : type1) {
    if (r.external_delay_ms < 2000.0) {
      ++fast;
    } else if (r.external_delay_ms <= 5800.0) {
      ++sensitive;
    } else {
      ++slow;
    }
  }
  const auto n = static_cast<double>(type1.size());
  // Paper: 25% too-fast, 50% sensitive, 25% too-slow.
  EXPECT_NEAR(static_cast<double>(fast) / n, 0.25, 0.04);
  EXPECT_NEAR(static_cast<double>(sensitive) / n, 0.50, 0.05);
  EXPECT_NEAR(static_cast<double>(slow) / n, 0.25, 0.04);
}

TEST(TraceGenerator, ServerDelayIndependentOfExternal) {
  const Trace trace = SmallTrace(0.01);
  std::vector<double> externals, servers;
  for (const auto& r : trace.FilterByPage(PageType::kType1)) {
    externals.push_back(r.external_delay_ms);
    servers.push_back(r.server_delay_ms);
  }
  // Fig. 7: no correlation between external and server-side delays.
  EXPECT_NEAR(SpearmanCorrelation(externals, servers), 0.0, 0.05);
}

TEST(TraceGenerator, ServerDelaysAreHighlyVariable) {
  const Trace trace = SmallTrace(0.01);
  for (int p = 0; p < kNumPageTypes; ++p) {
    StreamingSummary s;
    for (const auto& r : trace.FilterByPage(PageTypeFromIndex(p))) {
      s.Add(r.server_delay_ms);
    }
    // Fig. 8: substantial variance, not just at the tail.
    EXPECT_GT(s.cov(), 0.5) << "page " << p;
    EXPECT_LT(s.cov(), 2.6) << "page " << p;
  }
}

TEST(TraceGenerator, DiurnalPeaksCarryMoreTraffic) {
  const Trace trace = SmallTrace(0.02);
  auto count_hour = [&](int hour) {
    const double lo = hour * 3600.0 * 1000.0;
    return trace.FilterByTime(lo, lo + 3600.0 * 1000.0).size();
  };
  const double peak = static_cast<double>(count_hour(16) + count_hour(21)) / 2;
  const double off =
      static_cast<double>(count_hour(0) + count_hour(3) + count_hour(22)) / 3;
  // Paper Fig. 6: peak hours carry ~40% more traffic than off-peak hours.
  EXPECT_NEAR(peak / off, 1.4, 0.15);
}

TEST(TraceGenerator, PeakHoursHaveHigherServerDelays) {
  const Trace trace = SmallTrace(0.02);
  StreamingSummary peak, off;
  for (const auto& r : trace.records) {
    const int hour = static_cast<int>(r.arrival_ms / 3600000.0);
    if (hour == 16 || hour == 21) {
      peak.Add(r.server_delay_ms);
    } else if (hour == 0 || hour == 3) {
      off.Add(r.server_delay_ms);
    }
  }
  EXPECT_GT(peak.mean(), off.mean() * 1.1);
}

TEST(TraceGenerator, SessionsShareExternalDelayBase) {
  const Trace trace = SmallTrace(0.01);
  // Records of the same session have similar external delays (same
  // last-mile path) — ratio within ~50%.
  std::map<std::uint64_t, std::vector<double>> by_session;
  for (const auto& r : trace.records) {
    by_session[r.session_id].push_back(r.external_delay_ms);
  }
  int multi = 0;
  for (const auto& [id, delays] : by_session) {
    if (delays.size() < 2) continue;
    ++multi;
    for (std::size_t i = 1; i < delays.size(); ++i) {
      // Lognormal jitter with sigma 0.12 keeps loads within ~2x of the
      // session base even in the tails.
      EXPECT_LT(std::abs(delays[i] - delays[0]) / delays[0], 1.0);
    }
  }
  EXPECT_GT(multi, 10);  // Poisson extra loads produce multi-load sessions.
}

// Byte-wise FNV-1a-64 over each field's 8-byte little-endian image, in
// record order; integers are widened to 64 bits, doubles hashed by bits.
std::uint64_t RecordHash(const Trace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const TraceRecord& r : trace.records) {
    mix(r.request_id);
    mix(r.user_id);
    mix(r.session_id);
    mix(r.url_id);
    mix(static_cast<std::uint64_t>(r.page_type));
    mix(std::bit_cast<std::uint64_t>(r.arrival_ms));
    mix(std::bit_cast<std::uint64_t>(r.external_delay_ms));
    mix(std::bit_cast<std::uint64_t>(r.server_delay_ms));
    mix(std::bit_cast<std::uint64_t>(r.time_on_site_sec));
  }
  return h;
}

// Pins every byte the generator emits, so a faster Generate() must keep
// the same records in the same order.
TEST(TraceGenerator, RecordBytesArePinned) {
  const Trace day = SmallTrace(0.1, 20190819);
  EXPECT_EQ(day.records.size(), 159614u);
  EXPECT_EQ(RecordHash(day), 0xc08505901e047f2cULL);
  const Trace small = SmallTrace(0.002, 7);
  EXPECT_EQ(small.records.size(), 3159u);
  EXPECT_EQ(RecordHash(small), 0xc0b433f25eab988dULL);
}

// SortByArrival buckets by arrival minute and sorts each bucket the same
// way at finer widths; the oracle sorts the whole span with std::sort and
// the same comparator. Request ids are unique in every case, so both orders
// are total and must agree record for record.
void ExpectSortsLikeStdSort(std::vector<TraceRecord> records) {
  std::vector<TraceRecord> expected = records;
  std::sort(expected.begin(), expected.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return std::tie(a.arrival_ms, a.request_id) <
                     std::tie(b.arrival_ms, b.request_id);
            });
  SortByArrival(records);
  ASSERT_EQ(records.size(), expected.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(records[i].request_id, expected[i].request_id) << "at " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(records[i].arrival_ms),
              std::bit_cast<std::uint64_t>(expected[i].arrival_ms))
        << "at " << i;
    ASSERT_EQ(records[i].session_id, expected[i].session_id) << "at " << i;
  }
}

// Records with ids 1..n at the given arrivals, in the given order.
std::vector<TraceRecord> AtArrivals(const std::vector<double>& arrivals) {
  std::vector<TraceRecord> records(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    records[i].request_id = i + 1;
    records[i].session_id = 1000 + i;
    records[i].arrival_ms = arrivals[i];
  }
  return records;
}

TEST(SortByArrival, MatchesStdSortOnCraftedInputs) {
  ExpectSortsLikeStdSort({});
  ExpectSortsLikeStdSort(AtArrivals({42.0}));

  Rng rng(3);
  // Equal arrivals with distinct ids, in shuffled id order, on minute
  // boundaries and inside minutes.
  std::vector<double> ties;
  for (int i = 0; i < 600; ++i) {
    ties.push_back(static_cast<double>(rng.UniformInt(0, 5)) * 30000.0);
  }
  std::vector<TraceRecord> tied = AtArrivals(ties);
  rng.Shuffle(tied);
  ExpectSortsLikeStdSort(tied);

  // Every record in one minute, in descending arrival order.
  std::vector<double> one_minute;
  for (int i = 0; i < 500; ++i) one_minute.push_back(125000.0 - i * 7.5);
  ExpectSortsLikeStdSort(AtArrivals(one_minute));

  // Two dense two-second clusters a minute apart, with ties: each minute's
  // bucket and its busiest sub-buckets are split again.
  std::vector<double> clustered;
  for (int i = 0; i < 2000; ++i) {
    const double offset = std::round(rng.Uniform(0.0, 2000.0) * 2.0) / 2.0;
    clustered.push_back((i % 2 == 0 ? 0.0 : 60000.0) + offset);
  }
  ExpectSortsLikeStdSort(AtArrivals(clustered));

  // Arrivals past 24:00 (a session's later loads), and a span so sparse
  // that minute buckets would outnumber the records.
  std::vector<double> late;
  for (int i = 0; i < 300; ++i) {
    late.push_back(rng.Uniform(86.0e6, 86.4e6 + 20 * 30000.0));
  }
  ExpectSortsLikeStdSort(AtArrivals(late));
  std::vector<double> sparse = {0.0, 0.0, 61000.0};
  for (int i = 0; i < 40; ++i) {
    sparse.push_back((i % 2 == 0 ? 1.0 : -1.0) * std::pow(10.0, 0.4 * i));
  }
  ExpectSortsLikeStdSort(AtArrivals(sparse));
}

TEST(SortByArrival, MatchesStdSortOnAShuffledDay) {
  Trace trace = SmallTrace(0.002, 7);
  Rng rng(11);
  rng.Shuffle(trace.records);
  ExpectSortsLikeStdSort(trace.records);
}

TEST(SortByArrival, NonFiniteArrivalThrows) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    std::vector<TraceRecord> records = AtArrivals({1.0, bad, 2.0});
    EXPECT_THROW(SortByArrival(records), std::invalid_argument) << bad;
  }
}

TEST(TraceGenerator, InvalidScaleThrows) {
  TraceGenParams params;
  for (const double scale :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    params.scale = scale;
    EXPECT_THROW(TraceGenerator{params}, std::invalid_argument) << scale;
  }
}

TEST(TraceRecord, TotalDelayIsSum) {
  TraceRecord r;
  r.external_delay_ms = 1200.0;
  r.server_delay_ms = 300.0;
  EXPECT_DOUBLE_EQ(r.TotalDelayMs(), 1500.0);
}

TEST(TraceFilters, ByPageAndTime) {
  const Trace trace = SmallTrace(0.005);
  const auto type2 = trace.FilterByPage(PageType::kType2);
  for (const auto& r : type2) EXPECT_EQ(r.page_type, PageType::kType2);
  const auto slice = trace.FilterByTime(3600000.0, 7200000.0);
  for (const auto& r : slice) {
    EXPECT_GE(r.arrival_ms, 3600000.0);
    EXPECT_LT(r.arrival_ms, 7200000.0);
  }
  EXPECT_FALSE(type2.empty());
  EXPECT_FALSE(slice.empty());
}

TEST(Windows, GroupByWindowPartitions) {
  const Trace trace = SmallTrace(0.005);
  const double window_ms = 600000.0;
  const auto groups = GroupByWindow(trace.records, window_ms);
  std::size_t total = 0;
  for (const auto& [key, group] : groups) {
    total += group.size();
    for (const auto& r : group) {
      EXPECT_EQ(r.page_type, key.page_type);
      EXPECT_EQ(static_cast<std::int64_t>(r.arrival_ms / window_ms),
                key.window_index);
    }
  }
  EXPECT_EQ(total, trace.records.size());
  EXPECT_THROW(GroupByWindow(trace.records, 0.0), std::invalid_argument);
  EXPECT_THROW(GroupByWindow(trace.records,
                             std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(Windows, SampleWindowsPerTenMinutes) {
  const Trace trace = SmallTrace(0.05);
  const double begin = 16 * 3600000.0;
  const double end = 17 * 3600000.0;
  const auto windows =
      SampleWindowsPerTenMinutes(trace.records, begin, end, 60000.0);
  EXPECT_LE(windows.size(), 6u);
  EXPECT_GE(windows.size(), 4u);
  for (const auto& w : windows) {
    for (const auto& r : w) {
      EXPECT_GE(r.arrival_ms, begin);
      EXPECT_LT(r.arrival_ms, end);
    }
  }
  EXPECT_THROW(SampleWindowsPerTenMinutes(trace.records, end, begin, 1.0),
               std::invalid_argument);
}

TEST(TraceIo, CsvRoundTrip) {
  const Trace trace = SmallTrace(0.002);
  std::stringstream buffer;
  WriteTraceCsv(trace, buffer);
  const Trace parsed = ReadTraceCsv(buffer);
  ASSERT_EQ(parsed.records.size(), trace.records.size());
  for (std::size_t i = 0; i < trace.records.size(); i += 97) {
    const auto& a = trace.records[i];
    const auto& b = parsed.records[i];
    EXPECT_EQ(a.request_id, b.request_id);
    EXPECT_EQ(a.user_id, b.user_id);
    EXPECT_EQ(a.page_type, b.page_type);
    EXPECT_NEAR(a.external_delay_ms, b.external_delay_ms, 1e-3);
    EXPECT_NEAR(a.time_on_site_sec, b.time_on_site_sec, 1e-3);
  }
}

TEST(TraceIo, RejectsMalformedInput) {
  std::stringstream no_header("not,a,header\n");
  EXPECT_THROW(ReadTraceCsv(no_header), std::runtime_error);
  std::stringstream bad_fields(
      "request_id,user_id,session_id,url_id,page_type,arrival_ms,"
      "external_delay_ms,server_delay_ms,time_on_site_sec\n1,2,3\n");
  EXPECT_THROW(ReadTraceCsv(bad_fields), std::runtime_error);
  // One well-formed header, then one bad row: a page type out of range, a
  // partial number, a negative or out-of-range id, a non-finite value, or a
  // negative delay or time on site.
  for (const char* row : {"1,2,3,4,9,5.0,6.0,7.0,8.0",
                          "12abc,2,3,4,1,5.0,6.0,7.0,8.0",
                          "1,2,3,4,1,5.0,6.0x,7.0,8.0",
                          "1,-1,3,4,1,5.0,6.0,7.0,8.0",
                          "1,2,3,4294967296,1,5.0,6.0,7.0,8.0",
                          "1,2,3,4,1,nan,6.0,7.0,8.0",
                          "1,2,3,4,1,5.0,inf,7.0,8.0",
                          "1,2,3,4,1,5.0,6.0,-inf,8.0",
                          "1,2,3,4,1,5.0,-6.0,7.0,8.0",
                          "1,2,3,4,1,5.0,6.0,-7.0,8.0",
                          "1,2,3,4,1,5.0,6.0,7.0,-8.0"}) {
    std::stringstream bad_row(
        std::string("request_id,user_id,session_id,url_id,page_type,"
                    "arrival_ms,external_delay_ms,server_delay_ms,"
                    "time_on_site_sec\n") +
        row + "\n");
    EXPECT_THROW(ReadTraceCsv(bad_row), std::runtime_error) << row;
  }
}

TEST(Replay, CompressesTime) {
  const Trace trace = SmallTrace(0.002);
  const auto schedule = BuildReplaySchedule(trace.records, 20.0);
  ASSERT_EQ(schedule.size(), trace.records.size());
  EXPECT_DOUBLE_EQ(schedule.front().testbed_time_ms, 0.0);
  const double original_span =
      trace.records.back().arrival_ms - trace.records.front().arrival_ms;
  EXPECT_NEAR(schedule.back().testbed_time_ms, original_span / 20.0, 1e-6);
  // Order preserved.
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_LE(schedule[i - 1].testbed_time_ms, schedule[i].testbed_time_ms);
  }
}

TEST(Replay, OfferedRpsScalesWithSpeedup) {
  const Trace trace = SmallTrace(0.002);
  const auto slow = BuildReplaySchedule(trace.records, 1.0);
  const auto fast = BuildReplaySchedule(trace.records, 10.0);
  EXPECT_NEAR(OfferedRps(fast) / OfferedRps(slow), 10.0, 0.01);
}

TEST(Replay, InvalidInputsThrow) {
  const Trace trace = SmallTrace(0.002);
  EXPECT_THROW(BuildReplaySchedule(trace.records, 0.0), std::invalid_argument);
  // A NaN speedup would make every testbed time NaN; +inf would put the
  // whole trace at t = 0.
  EXPECT_THROW(BuildReplaySchedule(trace.records,
                                   std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(BuildReplaySchedule(trace.records,
                                   std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  std::vector<TraceRecord> unsorted = {trace.records[5], trace.records[1]};
  EXPECT_THROW(BuildReplaySchedule(unsorted, 2.0), std::invalid_argument);
}

TEST(PageType, RoundTripAndNames) {
  for (int i = 0; i < kNumPageTypes; ++i) {
    EXPECT_EQ(Index(PageTypeFromIndex(i)), i);
  }
  EXPECT_THROW(PageTypeFromIndex(-1), std::out_of_range);
  EXPECT_THROW(PageTypeFromIndex(3), std::out_of_range);
  EXPECT_EQ(ToString(PageType::kType1), "Page Type 1");
}

}  // namespace
}  // namespace e2e

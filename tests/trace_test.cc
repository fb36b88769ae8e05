#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "stats/fairness.h"
#include "stats/summary.h"
#include "trace/generator.h"
#include "trace/io.h"
#include "trace/record.h"
#include "trace/replay.h"
#include "trace/windows.h"
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

TEST(TraceGenerator, InvalidScaleThrows) {
  TraceGenParams params;
  params.scale = 0.0;
  EXPECT_THROW(TraceGenerator{params}, std::invalid_argument);
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

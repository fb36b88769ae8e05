#include "trace/record.h"

#include <algorithm>
#include <iterator>
#include <set>

namespace e2e {

namespace {

// Counts the matches before copying, so the result is allocated once at
// its exact size instead of doubling through the copy.
template <typename Pred>
std::vector<TraceRecord> CopyMatching(const std::vector<TraceRecord>& records,
                                      Pred pred) {
  std::vector<TraceRecord> out;
  out.reserve(static_cast<std::size_t>(
      std::count_if(records.begin(), records.end(), pred)));
  std::copy_if(records.begin(), records.end(), std::back_inserter(out), pred);
  return out;
}

}  // namespace

std::vector<TraceRecord> Trace::FilterByPage(PageType type) const {
  return CopyMatching(records, [type](const TraceRecord& r) {
    return r.page_type == type;
  });
}

std::vector<TraceRecord> Trace::FilterByTime(double begin_ms,
                                             double end_ms) const {
  return CopyMatching(records, [begin_ms, end_ms](const TraceRecord& r) {
    return r.arrival_ms >= begin_ms && r.arrival_ms < end_ms;
  });
}

TraceSummary Summarize(const Trace& trace) {
  TraceSummary summary;
  std::set<UserId> all_users;
  std::set<UserId> users[kNumPageTypes];
  std::set<std::uint64_t> sessions[kNumPageTypes];
  std::set<std::uint32_t> urls[kNumPageTypes];
  for (const auto& r : trace.records) {
    const int p = Index(r.page_type);
    ++summary.per_page[p].page_loads;
    users[p].insert(r.user_id);
    sessions[p].insert(r.session_id);
    urls[p].insert(r.url_id);
    all_users.insert(r.user_id);
  }
  for (int p = 0; p < kNumPageTypes; ++p) {
    summary.per_page[p].web_sessions = sessions[p].size();
    summary.per_page[p].unique_urls = urls[p].size();
    summary.per_page[p].unique_users = users[p].size();
    summary.total_page_loads += summary.per_page[p].page_loads;
  }
  summary.total_unique_users = all_users.size();
  return summary;
}

}  // namespace e2e

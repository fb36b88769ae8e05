#include "trace/generator.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "qoe/sigmoid_model.h"

namespace e2e {
namespace {

// Lognormal quartile fit: with underlying N(mu, sigma), the 25th/75th
// percentiles sit at mu -/+ 0.6745 sigma. Solving for quartiles at the
// 2,000 ms and 5,800 ms region edges gives the Fig. 4 class split.
constexpr double kExternalMu = 8.132;     // ln(3400 ms) median.
constexpr double kExternalSigma = 0.790;  // quartiles ~2.0 s / ~5.8 s.

constexpr double kMinuteMs = 60.0 * 1000.0;

// The trace order. A closure, not a function, so std::sort inlines it.
constexpr auto kArrivesBefore = [](const TraceRecord& a,
                                   const TraceRecord& b) {
  return a.arrival_ms < b.arrival_ms ||
         (a.arrival_ms == b.arrival_ms && a.request_id < b.request_id);
};

// Sorts `records` by kArrivesBefore with buckets at least `width` ms wide:
// counts the records per bucket, moves each misplaced record along its
// cycle into its bucket, then sorts each bucket the same way at 1/64 of
// the width. The bucket index is monotone in arrival, so each bucket holds
// a contiguous range of the sorted order and no second buffer is needed.
// Runs of at most 32 records, and runs whose records all share one bucket,
// go to std::sort.
void BucketSortByArrival(std::span<TraceRecord> records, double width) {
  if (records.size() <= 32) {
    std::sort(records.begin(), records.end(), kArrivesBefore);
    return;
  }
  double first = records.front().arrival_ms;
  double last = first;
  for (const TraceRecord& r : records) {
    first = std::min(first, r.arrival_ms);
    last = std::max(last, r.arrival_ms);
  }
  // Never more buckets than records, however wide the span.
  width =
      std::max(width, (last - first) / static_cast<double>(records.size()));
  const auto bucket_of = [first, width](const TraceRecord& r) {
    return static_cast<std::size_t>((r.arrival_ms - first) / width);
  };
  const std::size_t buckets =
      static_cast<std::size_t>((last - first) / width) + 1;
  if (buckets == 1) {
    std::sort(records.begin(), records.end(), kArrivesBefore);
    return;
  }

  // end[b] is one past bucket b's range; head[b] is its first position
  // not yet holding a record of bucket b.
  std::vector<std::size_t> end(buckets, 0);
  for (const TraceRecord& r : records) ++end[bucket_of(r)];
  std::vector<std::size_t> head(buckets, 0);
  for (std::size_t b = 1; b < buckets; ++b) {
    head[b] = end[b - 1];
    end[b] += end[b - 1];
  }
  for (std::size_t b = 0; b < buckets; ++b) {
    while (head[b] < end[b]) {
      TraceRecord& slot = records[head[b]];
      std::size_t to = bucket_of(slot);
      if (to != b) {
        TraceRecord moving = slot;
        do {
          std::swap(moving, records[head[to]++]);
          to = bucket_of(moving);
        } while (to != b);
        slot = moving;
      }
      ++head[b];
    }
  }

  // The earliest and the latest record sit in different buckets, so every
  // bucket is smaller than `records` and the recursion ends.
  std::size_t begin = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    BucketSortByArrival(records.subspan(begin, end[b] - begin), width / 64.0);
    begin = end[b];
  }
}

}  // namespace

void SortByArrival(std::span<TraceRecord> records) {
  for (const TraceRecord& r : records) {
    if (!std::isfinite(r.arrival_ms)) {
      throw std::invalid_argument("SortByArrival: arrival_ms not finite");
    }
  }
  BucketSortByArrival(records, kMinuteMs);
}

std::array<PageTypeParams, kNumPageTypes> TraceGenParams::DefaultPages() {
  std::array<PageTypeParams, kNumPageTypes> pages;
  // Table 1 volumes (thousands): sessions 564.8 / 265.7 / 512.2;
  // URLs 3.8k / 1.5k / 3.2k. Server delays are heavy-tailed lognormals
  // (median a few hundred ms, mean ~0.2x the mean external delay, matching
  // Fig. 7 medians against the Fig. 19a server/external ratio); sigmas
  // differ per page type so the Fig. 8 stdev/mean CDFs separate.
  pages[0] = {.sessions_at_full_scale = 564800,
              .urls_at_full_scale = 3800,
              .extra_loads_per_session = 0.209,
              .repeat_user_fraction = 0.077,
              .external_mu = kExternalMu,
              .external_sigma = kExternalSigma,
              .server_mu = std::log(330.0),
              .server_sigma = 1.10};
  pages[1] = {.sessions_at_full_scale = 265700,
              .urls_at_full_scale = 1500,
              .extra_loads_per_session = 0.182,
              .repeat_user_fraction = 0.006,
              .external_mu = kExternalMu + 0.04,
              .external_sigma = kExternalSigma,
              .server_mu = std::log(340.0),
              .server_sigma = 1.25};
  pages[2] = {.sessions_at_full_scale = 512200,
              .urls_at_full_scale = 3200,
              .extra_loads_per_session = 0.172,
              .repeat_user_fraction = 0.059,
              .external_mu = kExternalMu - 0.03,
              .external_sigma = kExternalSigma,
              .server_mu = std::log(320.0),
              .server_sigma = 0.95};
  return pages;
}

const std::array<double, 24>& DiurnalLoadFactors() {
  // Hour-of-day (ET) load factors; peaks at 16:00 and 21:00.
  static const std::array<double, 24> kFactors = {
      0.70,  // 00
      0.62,  // 01
      0.58,  // 02
      0.66,  // 03
      0.60,  // 04
      0.62,  // 05
      0.66,  // 06
      0.72,  // 07
      0.78,  // 08
      0.84,  // 09
      0.87,  // 10
      0.89,  // 11
      0.92,  // 12
      0.90,  // 13
      0.93,  // 14
      0.96,  // 15
      1.00,  // 16  peak
      0.95,  // 17
      0.92,  // 18
      0.93,  // 19
      0.96,  // 20
      1.00,  // 21  peak
      0.78,  // 22
      0.73,  // 23
  };
  return kFactors;
}

TraceGenerator::TraceGenerator(TraceGenParams params)
    : params_(std::move(params)) {
  if (!std::isfinite(params_.scale) || params_.scale <= 0.0) {
    throw std::invalid_argument("TraceGenerator: scale not finite and > 0");
  }
}

Trace TraceGenerator::Generate() const {
  const auto session_count = [this](const PageTypeParams& page) {
    return static_cast<std::size_t>(
        std::llround(page.sessions_at_full_scale * params_.scale));
  };

  // Each session is 1 + Poisson(extra) loads. The expected count plus 1%
  // (tens of standard deviations at full scale) means the vector never
  // doubles; an undershoot costs one reallocation. The double is clamped
  // to [0, 1e10] first: converting a NaN, negative or huge one to a size
  // is undefined.
  double expected = 0.0;
  for (const PageTypeParams& page : params_.pages) {
    expected += static_cast<double>(session_count(page)) *
                (1.0 + page.extra_loads_per_session);
  }
  const double capacity = expected * 1.01 + 64.0;
  Trace trace;
  trace.records.reserve(
      capacity > 0.0 ? static_cast<std::size_t>(std::min(capacity, 1e10))
                     : 0);

  Rng root(params_.seed);
  RequestId next_request = 1;
  std::uint64_t next_session = 1;
  UserId next_user = 1;

  // Per-hour constants: the diurnal sum (also the hour draw's validated
  // total) and the hour's server-delay inflation.
  const auto& diurnal = DiurnalLoadFactors();
  const double diurnal_total = Rng::CategoricalTotal(diurnal);
  std::array<double, 24> inflation{};
  for (std::size_t h = 0; h < inflation.size(); ++h) {
    const double load_factor = diurnal[h] / (diurnal_total / 24.0);
    inflation[h] = std::max(
        0.2, 1.0 + params_.server_load_coupling * (load_factor - 1.0));
  }

  for (int p = 0; p < kNumPageTypes; ++p) {
    const PageTypeParams& page = params_.pages[static_cast<std::size_t>(p)];
    Rng rng = root.Fork(static_cast<std::uint64_t>(p));
    const std::size_t sessions = session_count(page);
    const auto url_pool = std::max<std::uint32_t>(
        4, static_cast<std::uint32_t>(page.urls_at_full_scale * params_.scale));

    // Session engagement follows the page type's QoE model, so the Fig. 3a
    // pipeline (bucket sessions by PLT, average) recovers the curve.
    const auto qoe = std::make_shared<const SigmoidQoeModel>(
        SigmoidQoeModel::ForPageType(PageTypeFromIndex(p)));
    const SessionModel session_model(qoe, SessionModelParams{});

    // This page's users are exactly [first_user, next_user): a repeat
    // session picks one of them uniformly.
    const UserId first_user = next_user;

    // Minute-scale burstiness: real web traffic is doubly stochastic, with
    // some minutes ~2x busier than others. Weight each minute of the day
    // by an independent lognormal factor; testbed replays then see the
    // transient queue build-ups that make load-aware allocation matter.
    std::array<std::array<double, 60>, 24> minute_weights{};
    std::array<double, 24> minute_totals{};
    for (std::size_t h = 0; h < minute_weights.size(); ++h) {
      for (double& w : minute_weights[h]) w = rng.LogNormal(0.0, 0.3);
      minute_totals[h] = Rng::CategoricalTotal(minute_weights[h]);
    }
    const double no_extra_load = std::exp(-page.extra_loads_per_session);

    for (std::size_t s = 0; s < sessions; ++s) {
      // Arrival hour drawn from the diurnal profile; minute from the
      // burst weights; uniform within the minute.
      const auto hour = rng.Categorical(diurnal, diurnal_total);
      const auto minute =
          rng.Categorical(minute_weights[hour], minute_totals[hour]);
      const double arrival_base =
          (static_cast<double>(hour) * 60.0 + static_cast<double>(minute) +
           rng.Uniform(0.0, 1.0)) *
          60.0 * 1000.0;

      // User identity: mostly fresh users, some repeats (Table 1 ratios).
      UserId user;
      if (next_user > first_user && rng.Bernoulli(page.repeat_user_fraction)) {
        const auto known = static_cast<std::int64_t>(next_user - first_user);
        user = first_user + static_cast<UserId>(rng.UniformInt(0, known - 1));
      } else {
        user = next_user++;
      }
      const std::uint64_t session_id = next_session++;

      // Page loads in this session: 1 + Poisson(extra).
      int loads = 1;
      {
        const double lambda = page.extra_loads_per_session;
        double acc = no_extra_load;
        double u = rng.Uniform(0.0, 1.0);
        double cdf = acc;
        int k = 0;
        while (u > cdf && k < 20) {
          ++k;
          acc *= lambda / k;
          cdf += acc;
        }
        loads += k;
      }

      // A session's loads share a base external delay (same last-mile path)
      // with per-load jitter; this is what makes external delay an inherent
      // per-user property.
      const double session_external =
          rng.LogNormal(page.external_mu, page.external_sigma);

      double session_time_on_site = 0.0;
      for (int l = 0; l < loads; ++l) {
        TraceRecord rec;
        rec.request_id = next_request++;
        rec.user_id = user;
        rec.session_id = session_id;
        rec.page_type = PageTypeFromIndex(p);
        rec.url_id = static_cast<std::uint32_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(url_pool) - 1));
        rec.arrival_ms = arrival_base + static_cast<double>(l) *
                                            rng.Uniform(4000.0, 30000.0);
        rec.external_delay_ms =
            std::max(50.0, session_external * std::exp(rng.Normal(0.0, 0.12)));

        // Server delay: independent of external delay, load-coupled.
        rec.server_delay_ms = std::max(
            1.0, rng.LogNormal(page.server_mu, page.server_sigma) *
                     inflation[hour]);

        if (l == 0) {
          session_time_on_site =
              session_model.SampleTimeOnSiteSec(rec.TotalDelayMs(), rng);
        }
        rec.time_on_site_sec = session_time_on_site;
        trace.records.push_back(rec);
      }
    }
  }

  // Ties in arrival keep request-id order. Ids are unique and grow in
  // generation order, so this total order is exactly what a stable sort
  // by arrival gives, without its merge buffer.
  SortByArrival(trace.records);
  return trace;
}

}  // namespace e2e

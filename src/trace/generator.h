// Synthetic trace generator.
//
// Reproduces the published statistical properties of the paper's dataset:
//  * Table 1 volume ratios across three page types (scaled by `scale`).
//  * Fig. 4: external delays with a 25% / 50% / 25% split across the
//    too-fast / sensitive / too-slow classes (lognormal, quartiles at the
//    2.0 s and 5.8 s region edges).
//  * Fig. 7: server-side delays statistically independent of external
//    delays (they are drawn from separate streams).
//  * Fig. 8: high server-delay variability (stdev/mean mass between ~0.2
//    and ~1.5, varying by page type).
//  * Fig. 6/15(a): a diurnal load curve where peak hours carry ~40% more
//    traffic than off-peak hours, with correspondingly inflated server
//    delays (load-dependent backend).
#pragma once

#include <array>
#include <span>

#include "qoe/session.h"
#include "trace/record.h"
#include "util/rng.h"

namespace e2e {

/// Per-page-type generation parameters.
struct PageTypeParams {
  /// Target web sessions at scale = 1.0 (Table 1, thousands).
  double sessions_at_full_scale = 0.0;
  /// Unique URL pool size at scale = 1.0.
  double urls_at_full_scale = 0.0;
  /// Mean extra page loads per session beyond the first (Poisson).
  double extra_loads_per_session = 0.21;
  /// Probability a session belongs to a user seen before.
  double repeat_user_fraction = 0.08;

  /// External delay lognormal (underlying normal mu/sigma, in ln-ms).
  double external_mu = 0.0;
  double external_sigma = 0.0;

  /// Server delay lognormal at nominal (off-peak) load.
  double server_mu = 0.0;
  double server_sigma = 0.0;
};

/// Whole-trace generation parameters.
struct TraceGenParams {
  std::uint64_t seed = 1;

  /// Fraction of the paper's one-day volume to generate. 0.01 gives ~16k
  /// page loads, enough for every figure while keeping benches fast.
  double scale = 0.01;

  /// How strongly server delays inflate with diurnal load (1.0 = delays
  /// scale linearly with the hourly load factor).
  double server_load_coupling = 0.9;

  std::array<PageTypeParams, kNumPageTypes> pages = DefaultPages();

  /// Defaults matching the published statistics (see file comment).
  static std::array<PageTypeParams, kNumPageTypes> DefaultPages();
};

/// Hourly load factors (24 entries, max 1.0). Peak hours (16:00, 21:00 ET)
/// are 1.0; the off-peak hours used in Fig. 6 (00:00, 03:00, 22:00) average
/// ~0.71, giving the paper's "40% more traffic at peak".
const std::array<double, 24>& DiurnalLoadFactors();

/// Sorts `records` in place by (arrival_ms, request_id): the order
/// Generate() returns. An in-place bucket sort by arrival minute
/// (docs/PERFORMANCE.md §5); with unique request ids that order is total,
/// so the result is the one `std::sort` with that comparator gives. Throws
/// std::invalid_argument if an arrival is not finite.
void SortByArrival(std::span<TraceRecord> records);

/// Generates one synthetic day of traffic.
class TraceGenerator {
 public:
  /// Throws std::invalid_argument unless `params.scale` is finite and > 0.
  explicit TraceGenerator(TraceGenParams params);

  /// Produces the trace, sorted by arrival time; records that arrive at
  /// the same time keep request-id (generation) order. Deterministic in
  /// the seed.
  Trace Generate() const;

 private:
  TraceGenParams params_;
};

}  // namespace e2e

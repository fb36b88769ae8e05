#include "core/external_delay_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace e2e {

ExternalDelayModel::ExternalDelayModel(ExternalDelayModelParams params)
    : params_(params) {
  if (!(params_.window_ms > 0.0)) {  // NaN fails too.
    throw std::invalid_argument("ExternalDelayModel: window_ms <= 0");
  }
}

void ExternalDelayModel::Observe(DelayMs external_delay_ms, double now_ms) {
  if (!window_open_) {
    window_open_ = true;
    window_start_ms_ = now_ms;
  }
  MaybeRoll(now_ms);
  current_.push_back(external_delay_ms);
}

bool ExternalDelayModel::MaybeRoll(double now_ms) {
  if (!window_open_ || now_ms < window_start_ms_ + params_.window_ms) {
    return false;
  }
  bool published = false;
  // Advance over as many whole windows as have elapsed; only the most
  // recent closed window carries samples (earlier ones were empty).
  const double windows_elapsed =
      std::floor((now_ms - window_start_ms_) / params_.window_ms);
  if (current_.size() >= params_.min_samples) {
    published_ = std::move(current_);
    published_rps_ = static_cast<double>(published_.size()) /
                     (params_.window_ms / 1000.0);
    published = true;
  }
  current_.clear();
  window_start_ms_ += windows_elapsed * params_.window_ms;
  return published;
}

DelayMs ExternalDelayModel::EstimateForRequest(DelayMs true_external_ms,
                                               Rng& rng) const {
  if (external_error_ == 0.0) return true_external_ms;
  const double noise = rng.Uniform(-external_error_, external_error_);
  return std::max(0.0, true_external_ms * (1.0 + noise));
}

double ExternalDelayModel::PredictedRps(Rng& rng) const {
  if (rps_error_ == 0.0) return published_rps_;
  const double noise = rng.Uniform(-rps_error_, rps_error_);
  return std::max(0.0, published_rps_ * (1.0 + noise));
}

void ExternalDelayModel::SetExternalDelayError(double relative_error) {
  // An infinite bound would make the noise draw NaN.
  if (!(std::isfinite(relative_error) && relative_error >= 0.0)) {
    throw std::invalid_argument(
        "SetExternalDelayError: error not finite and >= 0");
  }
  external_error_ = relative_error;
}

void ExternalDelayModel::SetRpsError(double relative_error) {
  if (!(std::isfinite(relative_error) && relative_error >= 0.0)) {
    throw std::invalid_argument("SetRpsError: error not finite and >= 0");
  }
  rps_error_ = relative_error;
}

}  // namespace e2e

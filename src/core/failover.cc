#include "core/failover.h"

#include <stdexcept>

namespace e2e {

ReplicatedControllerGroup::ReplicatedControllerGroup(
    std::unique_ptr<Controller> primary, std::unique_ptr<Controller> backup)
    : primary_(std::move(primary)), backup_(std::move(backup)) {
  if (primary_ == nullptr || backup_ == nullptr) {
    throw std::invalid_argument("ReplicatedControllerGroup: null controller");
  }
}

void ReplicatedControllerGroup::ObserveArrival(DelayMs external_delay_ms,
                                               double now_ms) {
  // Replicas share input state: both see every observation.
  if (!primary_failed_) primary_->ObserveArrival(external_delay_ms, now_ms);
  backup_->ObserveArrival(external_delay_ms, now_ms);
}

bool ReplicatedControllerGroup::Tick(double now_ms) {
  if (election_deadline_ms_.has_value()) {
    if (now_ms < *election_deadline_ms_) {
      return false;  // Election in progress; stale cache keeps serving.
    }
    // Promotion: the backup adopts the last published table so its first
    // decisions match what clients already cached.
    backup_->AdoptStateFrom(*primary_);
    backup_->Recover();
    promoted_ = true;
    election_deadline_ms_.reset();
  }
  if (promoted_) return backup_->Tick(now_ms);
  if (primary_failed_) return false;
  return primary_->Tick(now_ms);
}

int ReplicatedControllerGroup::Decide(DelayMs true_external_delay_ms) {
  return active_mutable().Decide(true_external_delay_ms);
}

void ReplicatedControllerGroup::FailPrimary(double now_ms,
                                            double election_delay_ms) {
  if (election_delay_ms < 0.0) {
    throw std::invalid_argument(
        "ReplicatedControllerGroup::FailPrimary: negative election delay");
  }
  if (primary_failed_) return;
  primary_failed_ = true;
  primary_->Fail();
  election_deadline_ms_ = now_ms + election_delay_ms;
}

void ReplicatedControllerGroup::SetExternalDelayError(double relative_error) {
  primary_->SetExternalDelayError(relative_error);
  backup_->SetExternalDelayError(relative_error);
}

void ReplicatedControllerGroup::SetDecisionPenalties(
    std::vector<double> penalties_ms) {
  primary_->SetDecisionPenalties(penalties_ms);
  backup_->SetDecisionPenalties(std::move(penalties_ms));
}

void ReplicatedControllerGroup::SetLoadDiscount(double fraction) {
  primary_->SetLoadDiscount(fraction);
  backup_->SetLoadDiscount(fraction);
}

const Controller& ReplicatedControllerGroup::active() const {
  return promoted_ ? *backup_ : *primary_;
}

Controller& ReplicatedControllerGroup::active_mutable() {
  return promoted_ ? *backup_ : *primary_;
}

}  // namespace e2e

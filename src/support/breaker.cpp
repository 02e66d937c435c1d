#include "support/breaker.h"

#include <algorithm>
#include <limits>

namespace capellini {

void Breaker::Open() {
  state_ = State::kOpen;
  open_skips_ = 0;
  consecutive_failures_ = 0;
  window_.clear();
}

Breaker::Admission Breaker::Admit() {
  switch (state_) {
    case State::kClosed:
      return {Decision::kAllow};
    case State::kOpen:
      if (open_skips_ >= options_.probe_cooldown) {
        state_ = State::kHalfOpen;
        probe_deflections_ = 0;
        return {Decision::kProbe};
      }
      ++open_skips_;
      break;
    case State::kHalfOpen:
      // One probe in flight; keep deflecting until it reports, or until
      // probe_timeout deflections declare it lost.
      if (options_.probe_timeout > 0 &&
          ++probe_deflections_ >= options_.probe_timeout) {
        Open();
        return {Decision::kDeflect, Transition::kProbeLost};
      }
      break;
  }
  return {Decision::kDeflect};
}

Breaker::Transition Breaker::Report(bool failure) {
  switch (state_) {
    case State::kClosed: {
      bool trip = false;
      if (options_.threshold > 0) {
        if (!failure) {
          consecutive_failures_ = 0;
        } else if (++consecutive_failures_ >= options_.threshold) {
          trip = true;
        }
      }
      if (options_.window > 0) {
        const auto window = static_cast<std::size_t>(options_.window);
        window_.push_back(failure);
        if (window_.size() > window) window_.pop_front();
        if (window_.size() == window) {
          // Open on failure RATE: intermittent faults (say 1 in 3 solves
          // deadlocks) never run up a consecutive streak but still poison
          // the resource. A partial window never trips.
          const auto failures = static_cast<double>(
              std::count(window_.begin(), window_.end(), true));
          const double rate = std::clamp(
              options_.rate, std::numeric_limits<double>::min(), 1.0);
          if (failures >= rate * static_cast<double>(window)) trip = true;
        }
      }
      if (!trip) return Transition::kNone;
      Open();
      return Transition::kTripped;
    }
    case State::kHalfOpen:
      if (failure) {
        Open();
        return Transition::kProbeFailed;
      }
      // The trip evidence was cleared when the breaker opened and nothing
      // is recorded while open, so closing starts from a clean slate.
      state_ = State::kClosed;
      return Transition::kProbeSucceeded;
    case State::kOpen:
      break;
  }
  return Transition::kNone;
}

Breaker::Transition Breaker::AbortProbe() {
  if (state_ != State::kHalfOpen) return Transition::kNone;
  Open();
  return Transition::kProbeLost;
}

}  // namespace capellini

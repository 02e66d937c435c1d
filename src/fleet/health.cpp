#include "fleet/health.h"

#include <algorithm>

namespace capellini::fleet {
namespace {

DeviceState ToDeviceState(Breaker::State state) {
  switch (state) {
    case Breaker::State::kClosed: return DeviceState::kHealthy;
    case Breaker::State::kOpen: return DeviceState::kQuarantined;
    case Breaker::State::kHalfOpen: return DeviceState::kProbing;
  }
  return DeviceState::kHealthy;
}

}  // namespace

const char* DeviceStateName(DeviceState state) {
  switch (state) {
    case DeviceState::kHealthy: return "healthy";
    case DeviceState::kQuarantined: return "quarantined";
    case DeviceState::kProbing: return "probing";
  }
  return "?";
}

DeviceHealthTracker::DeviceHealthTracker(int num_devices, HealthOptions options)
    : options_(options),
      devices_(static_cast<std::size_t>(std::max(1, num_devices)),
               Breaker(options)) {}

void DeviceHealthTracker::CountLocked(Breaker::Transition transition) {
  using Transition = Breaker::Transition;
  if (transition == Transition::kProbeFailed) ++counters_.probe_failures;
  if (transition == Transition::kTripped ||
      transition == Transition::kProbeFailed) {
    ++counters_.quarantines;  // a failed probe re-quarantines
  }
  if (transition == Transition::kProbeSucceeded) ++counters_.reinstatements;
  if (transition == Transition::kProbeLost) ++counters_.probe_aborts;
}

DeviceHealthTracker::Admit DeviceHealthTracker::AdmitFor(int device) {
  if (!options_.enabled()) return Admit::kAllow;
  std::lock_guard<std::mutex> lock(mutex_);
  const Breaker::Admission admission =
      devices_[static_cast<std::size_t>(device)].Admit();
  CountLocked(admission.transition);
  if (admission.decision == Admit::kProbe) ++counters_.probes;
  if (admission.decision == Admit::kDeflect) ++counters_.deflections;
  return admission.decision;
}

void DeviceHealthTracker::Report(int device, bool failure) {
  if (!options_.enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  CountLocked(devices_[static_cast<std::size_t>(device)].Report(failure));
}

void DeviceHealthTracker::AbortProbe(int device) {
  if (!options_.enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  CountLocked(devices_[static_cast<std::size_t>(device)].AbortProbe());
}

DeviceState DeviceHealthTracker::state(int device) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ToDeviceState(devices_[static_cast<std::size_t>(device)].state());
}

HealthSnapshot DeviceHealthTracker::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  HealthSnapshot snap = counters_;
  snap.states.reserve(devices_.size());
  for (const Breaker& dev : devices_) {
    snap.states.push_back(ToDeviceState(dev.state()));
  }
  return snap;
}

}  // namespace capellini::fleet

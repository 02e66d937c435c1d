// Per-DEVICE health tracking for the sharded fleet (DESIGN.md §4j).
//
// The serve layer's circuit breaker is per HANDLE: it protects one matrix
// whose solves keep failing. A dying device fails every handle placed on it,
// and the fleet needs to stop routing there wholesale — that is this
// tracker's job. It runs the same state machine one level up: one
// support/breaker.h Breaker per device, with kHealthy / kQuarantined /
// kProbing naming its closed / open / half-open states. The tracker only
// adds the lock and turns the breaker's decisions and transitions into
// HealthSnapshot counters.
//
// Outcomes arrive through serve::ServiceOptions::outcome_listener, so the
// tracker sees exactly the device-path signals the breaker sees (kDeadlock,
// kDataLoss = failure; breaker-deflected requests excluded). All transitions
// are driven by call counts, never wall clock — replayed traffic takes the
// identical quarantine/probe/reinstate path, which bench_fleet_faults gates.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "support/breaker.h"

namespace capellini::fleet {

/// probe_timeout matters here: some serve paths end a request without an
/// outcome report (expired deadline, per-handle breaker deflection).
using HealthOptions = BreakerOptions;

enum class DeviceState { kHealthy, kQuarantined, kProbing };

const char* DeviceStateName(DeviceState state);

/// Aggregate lifecycle counters plus the per-device states — the fleet's
/// degraded-mode dashboard (ShardedSolveService::health_snapshot).
struct HealthSnapshot {
  std::vector<DeviceState> states;
  std::uint64_t quarantines = 0;      // kHealthy/kProbing -> kQuarantined
  std::uint64_t reinstatements = 0;   // successful probes
  std::uint64_t probes = 0;           // submits admitted as probes
  std::uint64_t probe_failures = 0;   // probes that re-quarantined
  /// Probes whose outcome never arrived: aborted synchronously (the probe
  /// submit failed admission) or timed out after probe_timeout deflections.
  /// The device returns to kQuarantined with a fresh cooldown.
  std::uint64_t probe_aborts = 0;
  std::uint64_t deflections = 0;      // submits turned away from the device
  int quarantined_devices() const {
    int n = 0;
    for (const DeviceState s : states) {
      if (s != DeviceState::kHealthy) ++n;
    }
    return n;
  }
};

class DeviceHealthTracker {
 public:
  DeviceHealthTracker(int num_devices, HealthOptions options);

  /// What a submit routed to `device` should do: run there (kAllow), run
  /// there as the quarantine's half-open probe (kProbe), or be routed to a
  /// survivor (kDeflect). Advances the cooldown counter on deflections, so
  /// the decision sequence is a pure function of the call sequence.
  using Admit = Breaker::Decision;
  Admit AdmitFor(int device);

  /// One terminal device-path outcome on `device` (failure = kDeadlock or
  /// kDataLoss, the breaker's failure set). Resolves an in-flight probe.
  void Report(int device, bool failure);

  /// Abandons an in-flight probe whose outcome can never arrive (the probe's
  /// submit failed admission before anything was enqueued): kProbing ->
  /// kQuarantined with a fresh cooldown, counted in probe_aborts. No-op in
  /// any other state.
  void AbortProbe(int device);

  DeviceState state(int device) const;
  HealthSnapshot snapshot() const;
  const HealthOptions& options() const { return options_; }
  bool enabled() const { return options_.enabled(); }

 private:
  /// Adds one breaker transition to counters_. Caller holds mutex_.
  void CountLocked(Breaker::Transition transition);

  HealthOptions options_;
  mutable std::mutex mutex_;
  std::vector<Breaker> devices_;
  HealthSnapshot counters_;  // states field unused here; filled in snapshot()
};

}  // namespace capellini::fleet

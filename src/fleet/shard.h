// Sharded serving: K per-device (MatrixRegistry, SolveService) pairs behind
// one facade, for the fleet's "millions of users" scaling axis.
//
// Placement is cost-aware and sticky: a matrix is registered on the device
// with the least outstanding work — the live queued-cost ledger
// (SolveService::QueuedCostMs) plus the cost of everything already placed
// there — and every solve on its handle routes to that device (matrix data
// lives in one device's registry budget; moving it would re-pay analysis).
// Each device keeps its own byte budget, LRU, EDF queue, breaker map and
// stats, so one noisy tenant saturates one shard, not the fleet.
//
// The placed-cost ledger is RECONCILED against each registry on every
// placement decision: per-handle entries are re-read from the live
// CostModel::EstimateMs() (so observed-EWMA corrections and post-update
// re-seeds replace the stale analytic hints) and entries whose handle was
// LRU-evicted are dropped. Without this the ledger only ever grows and
// long-lived fleets drift to stale placement.
//
// Degraded-mode serving (DESIGN.md §4j): with ShardOptions::health enabled,
// a DeviceHealthTracker runs serve's breaker state machine per device over
// every device's terminal device-path outcomes (through serve's
// outcome_listener seam). A quarantined device stops receiving placements
// and its existing handles FAIL OVER: deflected submits lazily re-register
// the matrix on the designated survivor (lowest-indexed healthy device) and
// serve there, with the survivor registration cached per (device, handle)
// and the cost ledger charged on the survivor. Half-open probes periodically
// let one submit through to the quarantined device; a success reinstates it
// and traffic routes home again. All transitions are request-count driven,
// so a replayed trace takes the identical degraded path (bench_fleet_faults
// gates K-1 serving determinism and the PR-4 exactly-once accounting).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleet/health.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "update/delta.h"

namespace capellini::fleet {

struct ShardOptions {
  int num_devices = 1;
  /// Per-device registry byte budget (0 = unlimited). The fleet-wide budget
  /// is num_devices * device_byte_budget.
  std::size_t device_byte_budget = 0;
  /// Applied to every device's SolveService.
  serve::ServiceOptions service{};
  /// Device health / quarantine (disabled by default: both modes 0).
  HealthOptions health{};
};

/// A registry handle plus the device that owns it.
struct ShardedHandle {
  int device = -1;
  serve::MatrixHandle handle = serve::kInvalidHandle;
  bool valid() const {
    return device >= 0 && handle != serve::kInvalidHandle;
  }
};

/// Degraded-mode counters: the tracker's lifecycle numbers plus the shard
/// facade's failover accounting. Failovers are NOT part of the per-device
/// request invariant — a failed-over request is accounted exactly once, on
/// the device that served it.
struct ShardHealthStats {
  HealthSnapshot health;
  /// Submits rerouted from a quarantined owner to a survivor.
  std::uint64_t failover_submits = 0;
  /// Lazy re-registrations performed for failover (first deflected submit
  /// per (device, handle), plus re-registration after an LRU eviction).
  std::uint64_t failover_registrations = 0;
};

class ShardedSolveService {
 public:
  explicit ShardedSolveService(const ShardOptions& options);

  int num_devices() const { return options_.num_devices; }
  const ShardOptions& options() const { return options_; }

  /// Registers on the least-loaded device (queued cost + placed cost hints;
  /// ties go to the lowest device index — deterministic for replays).
  /// Quarantined/probing devices are skipped unless no healthy device
  /// remains (then placement falls back to all devices).
  Expected<ShardedHandle> Register(Csr lower, std::string name,
                                   SolverOptions solver_options = {});

  /// Routes to the handle's device. Admission errors are that device's.
  /// With health tracking on, a quarantined owner's requests fail over to
  /// the survivor (see the header comment); probe admissions go to the
  /// owner. Fails with kResourceExhausted when every device is quarantined.
  Expected<std::future<serve::ServeResult>> Submit(
      const ShardedHandle& handle, std::vector<Val> b,
      serve::RequestOptions options = {});

  /// Streams a factor update (src/update) to the owning device's registry —
  /// MatrixRegistry::ApplyDelta semantics (epoch swap, snapshot isolation
  /// for in-flight solves) — and refreshes that device's placement-ledger
  /// entry from the post-update cost model, so a structurally heavier or
  /// lighter epoch immediately re-prices the device for future placements.
  /// Registry updates are host-side, so a quarantined owner still applies
  /// them (its failover copy, if any, is dropped: the survivor would serve a
  /// stale epoch).
  Expected<serve::UpdateReport> ApplyDelta(const ShardedHandle& handle,
                                           const update::DeltaBatch& batch);

  /// Start()/Shutdown() fan out to every device service.
  void Start();
  void Shutdown();

  double QueuedCostMs(int device) const;
  /// Sum of the per-handle placed costs on the device — the static half of
  /// the placement score, reconciled on every placement decision.
  double PlacedCostMs(int device) const;

  /// Point-in-time degraded-mode view (health states + failover counters).
  ShardHealthStats health_stats() const;
  const DeviceHealthTracker& health() const { return health_; }

  serve::MatrixRegistry& registry(int device) {
    return *registries_[static_cast<std::size_t>(device)];
  }
  serve::SolveService& service(int device) {
    return *services_[static_cast<std::size_t>(device)];
  }
  const serve::ServiceStats& stats(int device) const {
    return services_[static_cast<std::size_t>(device)]->stats();
  }

 private:
  /// Re-reads device `d`'s ledger from the live registry: evicted handles
  /// are dropped, surviving ones re-priced from CostModel::EstimateMs().
  /// Caller holds mutex_ (TryPeek takes the registry's own mutex; ordering
  /// is always ledger -> registry, never the reverse).
  void ReconcileLedgerLocked(int device);
  /// The failover target for a deflected submit: a resident survivor copy of
  /// (owner, handle), re-registering it if missing, LRU-evicted, or stranded
  /// on a device that is no longer the survivor (the superseded copy is
  /// evicted and its ledger entry dropped). Survivor = lowest-indexed
  /// healthy device (deterministic for replays). Takes mutex_ itself and
  /// holds it across the check-register-insert sequence, so two concurrent
  /// deflected submits for one key cannot both miss the cache and
  /// double-register on the survivor.
  Expected<ShardedHandle> FailoverTarget(const ShardedHandle& handle);

  ShardOptions options_;
  // Declared BEFORE services_ (so destroyed AFTER them): each service's
  // destructor joins workers that may still fire outcome_listener, which
  // reports into health_. health_ and mutex_ must outlive those threads.
  DeviceHealthTracker health_;
  mutable std::mutex mutex_;  // placement ledger + failover map
  std::vector<std::unique_ptr<serve::MatrixRegistry>> registries_;
  std::vector<std::unique_ptr<serve::SolveService>> services_;
  /// Per device: handle -> last reconciled per-solve cost estimate (ms).
  std::vector<std::unordered_map<serve::MatrixHandle, double>> placed_;
  /// (owner device, owner handle) -> cached survivor registration.
  struct FailoverKeyHash {
    std::size_t operator()(const std::pair<int, serve::MatrixHandle>& k) const {
      return std::hash<serve::MatrixHandle>()(k.second) * 31 +
             static_cast<std::size_t>(k.first);
    }
  };
  std::unordered_map<std::pair<int, serve::MatrixHandle>, ShardedHandle,
                     FailoverKeyHash>
      failover_;
  std::uint64_t failover_submits_ = 0;
  std::uint64_t failover_registrations_ = 0;
};

}  // namespace capellini::fleet

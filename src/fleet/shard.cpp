#include "fleet/shard.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace capellini::fleet {

ShardedSolveService::ShardedSolveService(const ShardOptions& options)
    : options_(options),
      health_(std::max(1, options.num_devices), options.health) {
  options_.num_devices = std::max(1, options_.num_devices);
  const int k = options_.num_devices;
  serve::RegistryOptions registry_options;
  registry_options.byte_budget = options_.device_byte_budget;
  registries_.reserve(static_cast<std::size_t>(k));
  services_.reserve(static_cast<std::size_t>(k));
  for (int d = 0; d < k; ++d) {
    registries_.push_back(
        std::make_unique<serve::MatrixRegistry>(registry_options));
    serve::ServiceOptions service_options = options_.service;
    if (options_.health.enabled()) {
      // Feed the device's terminal device-path outcomes to the tracker —
      // exactly the breaker's signal set (host-fallback serves excluded).
      service_options.outcome_listener = [this, d](serve::MatrixHandle,
                                                   StatusCode code) {
        health_.Report(d, serve::IsDeviceFailure(code));
      };
    }
    services_.push_back(std::make_unique<serve::SolveService>(
        registries_.back().get(), service_options));
  }
  placed_.resize(static_cast<std::size_t>(k));
}

void ShardedSolveService::ReconcileLedgerLocked(int device) {
  auto& ledger = placed_[static_cast<std::size_t>(device)];
  auto& registry = *registries_[static_cast<std::size_t>(device)];
  for (auto it = ledger.begin(); it != ledger.end();) {
    const serve::MatrixRegistry::EntryRef entry = registry.TryPeek(it->first);
    if (entry == nullptr) {
      it = ledger.erase(it);  // LRU-evicted: its cost left the device
    } else {
      it->second = entry->cost.EstimateMs();
      ++it;
    }
  }
}

Expected<ShardedHandle> ShardedSolveService::Register(
    Csr lower, std::string name, SolverOptions solver_options) {
  // Choose under the ledger lock so concurrent registrations don't all read
  // the same scores and pile onto one device. Reconciling first means the
  // score prices each device by what is RESIDENT there NOW (observed EWMA
  // corrections included), not by the sum of every hint ever placed.
  // Quarantined devices are skipped — placing fresh matrices on a device
  // that fails every solve only grows the failover map — unless nothing
  // healthy remains (then all devices compete and the health tracker's
  // probes decide recovery).
  int best = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    bool any_healthy = false;
    for (int d = 0; d < options_.num_devices; ++d) {
      if (health_.state(d) == DeviceState::kHealthy) {
        any_healthy = true;
        break;
      }
    }
    double best_score = std::numeric_limits<double>::infinity();
    for (int d = 0; d < options_.num_devices; ++d) {
      if (any_healthy && health_.state(d) != DeviceState::kHealthy) continue;
      ReconcileLedgerLocked(d);
      double placed = 0.0;
      for (const auto& [handle, cost] : placed_[static_cast<std::size_t>(d)]) {
        placed += cost;
      }
      const double score =
          services_[static_cast<std::size_t>(d)]->QueuedCostMs() + placed;
      if (score < best_score) {  // strict '<': ties go to the lowest index
        best_score = score;
        best = d;
      }
    }
  }
  auto handle_or = registries_[static_cast<std::size_t>(best)]->Register(
      std::move(lower), std::move(name), std::move(solver_options));
  if (!handle_or.ok()) return handle_or.status();
  // TryPeek: the ledger read must not promote the entry, count a cache hit,
  // or (if the entry somehow vanished already) count a miss. The entry is
  // fresh, so the estimate is the analytic seed.
  const serve::MatrixRegistry::EntryRef entry =
      registries_[static_cast<std::size_t>(best)]->TryPeek(*handle_or);
  if (entry != nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    placed_[static_cast<std::size_t>(best)][*handle_or] =
        entry->cost.EstimateMs();
  }
  return ShardedHandle{best, *handle_or};
}

Expected<ShardedHandle> ShardedSolveService::FailoverTarget(
    const ShardedHandle& handle) {
  // Survivor: the lowest-indexed healthy device. Lowest-index (not
  // least-loaded) keeps the choice a pure function of the health states, so
  // replayed traffic fails over to the same place.
  int survivor = -1;
  for (int d = 0; d < options_.num_devices; ++d) {
    if (d != handle.device && health_.state(d) == DeviceState::kHealthy) {
      survivor = d;
      break;
    }
  }
  if (survivor < 0) {
    return ResourceExhausted(
        "every fleet device is quarantined; no failover target for device " +
        std::to_string(handle.device));
  }

  const std::pair<int, serve::MatrixHandle> key{handle.device, handle.handle};
  // mutex_ is held across the whole check-register-insert sequence: two
  // concurrent deflected submits for the same key must not both miss the
  // cache and double-register the matrix on the survivor (duplicate budget
  // charge, double-counted failover_registrations_). Lock ordering stays
  // ledger -> registry, the documented direction.
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = failover_.find(key);
  if (it != failover_.end()) {
    if (it->second.device == survivor &&
        registries_[static_cast<std::size_t>(survivor)]->Contains(
            it->second.handle)) {
      return it->second;
    }
    // The cached copy is stale: LRU-evicted, or stranded on a device that is
    // no longer the survivor. Drop the superseded registration and its
    // ledger entry so the old device's byte budget and placement score stop
    // charging for it (in-flight solves pinned their EntryRef; Evict only
    // drops the registry's reference).
    registries_[static_cast<std::size_t>(it->second.device)]->Evict(
        it->second.handle);
    placed_[static_cast<std::size_t>(it->second.device)].erase(
        it->second.handle);
    failover_.erase(it);
  }

  // First deflected submit for this handle (or the cached copy was stale):
  // copy the matrix out of the quarantined device's registry — its HOST-side
  // state is intact; only its device path is sick — and register on the
  // survivor. The device-specific seams (fault injector, trace sink) do NOT
  // follow the matrix: they model the OWNER device's hardware, and carrying
  // them over would poison the survivor.
  const serve::MatrixRegistry::EntryRef entry =
      registries_[static_cast<std::size_t>(handle.device)]->TryPeek(
          handle.handle);
  if (entry == nullptr) {
    return NotFound("sharded handle " + std::to_string(handle.handle) +
                    " is gone from quarantined device " +
                    std::to_string(handle.device));
  }
  SolverOptions survivor_options = entry->solver.options();
  survivor_options.kernel_options.fault_injector = nullptr;
  survivor_options.kernel_options.trace_sink = nullptr;
  auto registered = registries_[static_cast<std::size_t>(survivor)]->Register(
      entry->solver.matrix(), entry->name + "@failover",
      std::move(survivor_options));
  if (!registered.ok()) return registered.status();

  const ShardedHandle target{survivor, *registered};
  ++failover_registrations_;
  failover_[key] = target;
  const serve::MatrixRegistry::EntryRef placed_entry =
      registries_[static_cast<std::size_t>(survivor)]->TryPeek(*registered);
  if (placed_entry != nullptr) {
    placed_[static_cast<std::size_t>(survivor)][*registered] =
        placed_entry->cost.EstimateMs();
  }
  return target;
}

Expected<std::future<serve::ServeResult>> ShardedSolveService::Submit(
    const ShardedHandle& handle, std::vector<Val> b,
    serve::RequestOptions options) {
  if (handle.device < 0 || handle.device >= options_.num_devices) {
    return InvalidArgument("sharded handle names device " +
                           std::to_string(handle.device) + " of a " +
                           std::to_string(options_.num_devices) +
                           "-device fleet");
  }
  if (health_.enabled()) {
    switch (health_.AdmitFor(handle.device)) {
      case DeviceHealthTracker::Admit::kAllow:
        break;
      case DeviceHealthTracker::Admit::kProbe: {
        // The probe runs the normal path on the owner; the outcome listener
        // resolves it (reinstate or re-quarantine). If the submit fails
        // admission (queue full, evicted handle, shutdown) no outcome will
        // ever arrive — abort the probe so the device falls back to
        // quarantine instead of sticking in kProbing forever. (Outcomes
        // lost later — an expired deadline, a per-handle breaker deflection
        // — are covered by the tracker's probe_timeout.)
        auto probe = services_[static_cast<std::size_t>(handle.device)]
                         ->Submit(handle.handle, std::move(b), options);
        if (!probe.ok()) health_.AbortProbe(handle.device);
        return probe;
      }
      case DeviceHealthTracker::Admit::kDeflect: {
        auto target = FailoverTarget(handle);
        if (!target.ok()) return target.status();
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++failover_submits_;
        }
        return services_[static_cast<std::size_t>(target->device)]->Submit(
            target->handle, std::move(b), options);
      }
    }
  }
  return services_[static_cast<std::size_t>(handle.device)]->Submit(
      handle.handle, std::move(b), options);
}

Expected<serve::UpdateReport> ShardedSolveService::ApplyDelta(
    const ShardedHandle& handle, const update::DeltaBatch& batch) {
  if (handle.device < 0 || handle.device >= options_.num_devices) {
    return InvalidArgument("sharded handle names device " +
                           std::to_string(handle.device) + " of a " +
                           std::to_string(options_.num_devices) +
                           "-device fleet");
  }
  auto& registry = *registries_[static_cast<std::size_t>(handle.device)];
  auto report = registry.ApplyDelta(handle.handle, batch);
  if (!report.ok()) return report.status();
  // The new epoch re-seeded its cost model from the patched analysis —
  // refresh the ledger so the next placement prices this device's new load.
  const serve::MatrixRegistry::EntryRef entry =
      registry.TryPeek(handle.handle);
  std::lock_guard<std::mutex> lock(mutex_);
  auto& ledger = placed_[static_cast<std::size_t>(handle.device)];
  if (entry == nullptr) {
    ledger.erase(handle.handle);  // evicted while budgeting the new epoch
  } else {
    ledger[handle.handle] = entry->cost.EstimateMs();
  }
  // A failover copy on a survivor is now one epoch stale — drop it (and its
  // ledger entry) so the next deflected submit re-registers the updated
  // factor and the survivor's budget stops charging for the dead epoch.
  // In-flight solves pinned their EntryRef, so eviction cannot hurt them.
  auto failed_over = failover_.find({handle.device, handle.handle});
  if (failed_over != failover_.end()) {
    registries_[static_cast<std::size_t>(failed_over->second.device)]->Evict(
        failed_over->second.handle);
    placed_[static_cast<std::size_t>(failed_over->second.device)].erase(
        failed_over->second.handle);
    failover_.erase(failed_over);
  }
  return report;
}

void ShardedSolveService::Start() {
  for (auto& service : services_) service->Start();
}

void ShardedSolveService::Shutdown() {
  for (auto& service : services_) service->Shutdown();
}

double ShardedSolveService::QueuedCostMs(int device) const {
  return services_[static_cast<std::size_t>(device)]->QueuedCostMs();
}

double ShardedSolveService::PlacedCostMs(int device) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double placed = 0.0;
  for (const auto& [handle, cost] : placed_[static_cast<std::size_t>(device)]) {
    placed += cost;
  }
  return placed;
}

ShardHealthStats ShardedSolveService::health_stats() const {
  ShardHealthStats stats;
  stats.health = health_.snapshot();
  std::lock_guard<std::mutex> lock(mutex_);
  stats.failover_submits = failover_submits_;
  stats.failover_registrations = failover_registrations_;
  return stats;
}

}  // namespace capellini::fleet

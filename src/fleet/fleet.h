// Multi-device sharded solving: K independent simulated GPUs solving one
// triangular system, partitioned by contiguous row blocks.
//
// Execution model (DESIGN.md §4f): every device starts at fleet cycle 0 and
// launches a range variant of a Capellini thread-per-row kernel over its
// block. Local dependencies resolve exactly as on one device; a dependency on
// an earlier device's row arrives as a delayed external store (value + flag)
// at the cycle the comm model charges, and the consumer row spins on the flag
// just as it would for an on-device producer. The K launches run at the same
// time, one host thread per device (co-simulation): device d simulates cycle
// c once it knows every peer store landing at or before c. A store it does
// not know yet lands at least CommModel::MinDelay() cycles (latency + wire,
// 502 by default) after its producer's current cycle, so d runs ahead of each
// producer it still waits on by up to that lookahead and blocks (without
// spinning) when it gets there. Because the partition is contiguous, d waits
// only on devices d' < d. A solve takes about as long as its slowest device,
// not the sum of them.
//
// Determinism contract (gated by bench_fleet): the Capellini kernels drain
// left_sum in strict CSR order, so computed values are timing-independent,
// and arrivals are priced per link in (source, row) order whatever order the
// publishes happen in — the fleet solution is byte-identical to the
// single-device solve for K=1, and solution, cycles, statuses and message
// counts are byte-identical across host thread counts for any K. With
// host_threads = 1 the devices run one after another in index order.
//
// Failure containment: a device whose producer failed, or whose producer
// finished without publishing a row it needs (a dropped publish), is
// cancelled mid-launch and ends with the outcome of a device that never
// launched: kDeadlock with the upstream or never-published message,
// launched = false, the messages delivered before the first unpublished row,
// and its FaultInjector rewound to where it stood before the launch. One
// difference remains: that device's TraceSink, if it has one, sees the
// launch it ran before it was cancelled.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/solver.h"
#include "core/verify.h"
#include "fleet/comm.h"
#include "fleet/partition.h"
#include "fleet/stats.h"
#include "kernels/launch.h"
#include "sim/config.h"
#include "sim/machine.h"
#include "sim/memory.h"

namespace capellini::fleet {

/// Fleet-level self-healing (DESIGN.md §4j). When enabled, a failed
/// partition — deadlocked, starved by a dropped publish, or completing with
/// a bad range residual — is re-executed through a bounded ladder instead of
/// failing the whole solve:
///
///   1. the owner itself, when the failure was upstream-induced (the
///      partition never launched; with the recovered upstream publishes it
///      is expected to succeed),
///   2. a designated survivor — the lowest-indexed device whose own
///      first-pass partition succeeded — via the same SolveRangeOnDevice
///      path, replaying the checkpointed upstream boundary publishes as a
///      fully known arrival list (kernels::KnownArrivals),
///   3. the fault-immune host serial rung over just the failed rows
///      (kHostExecutor, the last executor of the same rung loop).
///
/// Partitions recover in device-index order, so a downstream partition that
/// failed only because its producer died re-executes against the recovered
/// publishes as if the producer had succeeded — upstream completed work is
/// never redone. Every accepted range passes VerifyRange and the stitched
/// solution passes a final VerifySolution. Determinism: the ladder order,
/// survivor choice and injector event streams are pure functions of the
/// (seeded) fault stream and the outcome history, so same seed => identical
/// failover path; zero-fault runs never enter recovery and stay
/// byte-identical to a recovery-disabled solve.
struct FleetRecoveryOptions {
  bool enabled = false;
  /// Residual bound for the per-range and final stitched checks. Every
  /// partition's range is verified even if its launch reported OK — a
  /// bit-flipped store completes "successfully" with a corrupted value only
  /// the residual catches.
  VerifyOptions verify;
};

struct FleetConfig {
  int num_devices = 1;
  /// Per-device simulated GPU (all devices identical).
  sim::DeviceConfig device = sim::PascalGtx1080();
  CommConfig comm;
  PartitionStrategy strategy = PartitionStrategy::kLevelAware;
  /// kCapelliniWritingFirst or kCapelliniTwoPhase (the thread-per-row
  /// kernels with range variants).
  kernels::DeviceAlgorithm algorithm =
      kernels::DeviceAlgorithm::kCapelliniWritingFirst;
  int threads_per_block = 256;
  /// Host threads driving the devices; 0 = one per device. Any value gives
  /// byte-identical results (see the determinism contract above); 1 runs
  /// the devices one after another.
  int host_threads = 0;
  FleetRecoveryOptions recovery;
};

/// Owns the K machines and their memories plus the per-device trace/fault
/// seams (same contract as the single-machine setters: not owned, nullptr =
/// off). Devices run at the same time, so give each device its own sink and
/// injector. A fleet is reusable across solves.
class DeviceFleet {
 public:
  explicit DeviceFleet(const FleetConfig& config);

  const FleetConfig& config() const { return config_; }
  int num_devices() const { return config_.num_devices; }

  sim::Machine& machine(int device) {
    return *machines_[static_cast<std::size_t>(device)];
  }
  sim::DeviceMemory& memory(int device) {
    return *memories_[static_cast<std::size_t>(device)];
  }

  void set_trace_sink(int device, trace::TraceSink* sink) {
    sinks_[static_cast<std::size_t>(device)] = sink;
  }
  trace::TraceSink* trace_sink(int device) const {
    return sinks_[static_cast<std::size_t>(device)];
  }
  /// The injector's tid offset is set to the device's row_begin during a
  /// fleet solve, so FaultPlan row scopes are written in GLOBAL row
  /// coordinates no matter which device owns the rows.
  void set_fault_injector(int device, sim::FaultInjector* faults) {
    injectors_[static_cast<std::size_t>(device)] = faults;
  }
  sim::FaultInjector* fault_injector(int device) const {
    return injectors_[static_cast<std::size_t>(device)];
  }

 private:
  FleetConfig config_;
  std::vector<std::unique_ptr<sim::DeviceMemory>> memories_;
  std::vector<std::unique_ptr<sim::Machine>> machines_;
  std::vector<trace::TraceSink*> sinks_;
  std::vector<sim::FaultInjector*> injectors_;
};

struct FleetResult {
  /// Assembled solution; rows of a failed device are zero (and `status`
  /// carries the failure). With recovery enabled, recovered partitions are
  /// stitched in and `status` is OK when every range verified.
  std::vector<Val> x;
  /// First failing device's status, or OK. Per-device outcomes are in
  /// stats.devices[d].status — independent devices finish clean even when
  /// one partition is killed. A recovered solve reports OK here; the
  /// original per-device failures stay visible in stats.devices[d].status
  /// and the failover ledger.
  Status status;
  Partition partition;
  FleetStats stats;
  /// Final stitched-solution check (recovery-enabled solves that entered
  /// the recovery path only; default-constructed otherwise).
  Verification verification;
};

/// Drives a DeviceFleet over a Solver's system. The Solver supplies the
/// matrix, the memoized level sets (level-aware cuts) and CostHintMs (the
/// balance weights and per-device cost attribution).
class FleetSolver {
 public:
  explicit FleetSolver(DeviceFleet* fleet) : fleet_(fleet) {}

  Expected<FleetResult> Solve(const Solver& solver,
                              std::span<const Val> b) const;

 private:
  DeviceFleet* fleet_;  // not owned
};

}  // namespace capellini::fleet

// Fleet-level counters: per-device execution + communication attribution,
// merged into one makespan view (critical-path device, aggregate comm
// volume). Plain data — filled by FleetSolver, serialized by bench_fleet.
#pragma once

#include <cstdint>
#include <vector>

#include "matrix/types.h"
#include "sim/counters.h"
#include "support/status.h"

namespace capellini::fleet {

struct DeviceStats {
  Idx row_begin = 0;
  Idx row_end = 0;
  std::int64_t nnz = 0;

  /// Per-device launch outcome. The fleet finishes every independent device
  /// even when one fails (fault-injection tests kill exactly one partition
  /// and assert the rest run clean); dependents of a failed device fail fast
  /// with kDeadlock instead of simulating the infinite spin.
  Status status;

  sim::LaunchStats launch;      // the device's kernel counters
  std::uint64_t cycles = 0;     // launch cycles incl. launch overhead
  double exec_ms = 0.0;
  /// HOST wall-clock milliseconds spent simulating this device's launch —
  /// the interpreter-speed side of the ledger (exec_ms is simulated time).
  /// bench_fleet derives host_ns_per_sim_cycle from this per device. Not
  /// covered by determinism checksums: wall clock is never deterministic.
  double host_ms = 0.0;
  /// HOST wall-clock milliseconds the device's thread spent blocked on a
  /// producer during its launch (not part of host_ms).
  double host_wait_ms = 0.0;
  /// Estimated share of Solver::CostHintMs() for this block (nnz-weighted) —
  /// what the partitioner balanced against.
  double est_cost_ms = 0.0;

  // Boundary traffic attribution.
  std::uint64_t in_messages = 0;    // remote rows this device waited on
  std::uint64_t out_messages = 0;   // rows it published to later devices
  std::uint64_t comm_bytes_in = 0;
  /// Sum over inbound messages of (arrival - publish): total wire+queue time
  /// charged by the comm model.
  std::uint64_t comm_delay_cycles = 0;
  /// Cycle of the last inbound arrival — until then the device's boundary
  /// rows were spinning on remote flags.
  std::uint64_t last_arrival_cycle = 0;
  /// min(cycles, last_arrival_cycle): upper bound on the stretch of the
  /// launch that was (partly) remote-bound.
  std::uint64_t boundary_stall_cycles = 0;

  // Failover attribution (recovery-enabled solves only; see FailoverRecord).
  /// This partition's first-pass attempt failed (or failed verification) and
  /// the recovery ladder re-executed it.
  bool failed_over = false;
  /// Ladder rungs tried for this partition (0 when failed_over is false).
  int recovery_attempts = 0;
  /// Executor that produced the accepted range: a device index, or
  /// kHostExecutor for the serial host rung. Meaningful only when
  /// failed_over is true.
  int recovered_on = -1;
};

/// Executor id for the fault-immune host serial rung in failover records.
inline constexpr int kHostExecutor = -1;

/// One partition's trip through the fleet recovery ladder, in the order the
/// rungs ran. Recovery decisions are pure functions of (fault stream,
/// outcome history), so bench_fleet_faults serializes these records and
/// gates byte-identical failover paths across same-seed replays.
struct FailoverRecord {
  int device = -1;  // the partition's original owner
  /// True when the partition never launched because an upstream partition
  /// failed or dropped a publish — the owner itself is presumed healthy and
  /// is retried first with the recovered arrivals.
  bool upstream_induced = false;
  /// Executors tried, in order (device index or kHostExecutor). The last
  /// entry is the one that produced the accepted range when `verified`.
  std::vector<int> attempts;
  int recovered_on = -1;  // last attempt's executor (valid when verified)
  bool verified = false;  // VerifyRange passed on the accepted range
  Idx rows = 0;           // partition size re-executed
  /// Range residual of the accepted attempt (+inf if nothing verified).
  double residual = 0.0;
};

struct FleetStats {
  std::vector<DeviceStats> devices;

  /// Strictly-lower nonzeros whose column lies on another device: the
  /// partition boundary size (CountCrossEdges).
  std::int64_t cross_edges = 0;
  /// Messages delivered: one per (remote row, consumer device), however many
  /// of the consumer's rows read that row, so at most cross_edges. A device
  /// that did not launch counts only the deliveries made before it stopped.
  std::uint64_t total_messages = 0;
  std::uint64_t total_comm_bytes = 0;

  /// All devices start at fleet cycle 0; the makespan is the slowest
  /// SUCCESSFUL device's launch (its spin-waits already include remote
  /// arrival time). Failed launches are excluded: the watchdog returns an
  /// error instead of a cycle count, so a killed partition must not win the
  /// argmax with a synthesized total. critical_device is -1 when no device
  /// completed. Recovery re-executions are accounted in the failover
  /// records, not the makespan — it models the fault-free parallel phase.
  std::uint64_t makespan_cycles = 0;
  int critical_device = -1;  // argmax cycles over OK devices
  double exec_ms = 0.0;      // makespan in simulated milliseconds

  // Recovery ledger (empty/zero on zero-fault runs — byte-identity with
  // recovery disabled is gated by bench_fleet_faults).
  std::vector<FailoverRecord> failovers;
  std::uint64_t rows_reexecuted = 0;     // summed over failover attempts
  std::uint64_t host_rung_recoveries = 0;
  std::uint64_t device_rung_recoveries = 0;
};

}  // namespace capellini::fleet

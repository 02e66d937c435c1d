// src/fleet: partitioner edge cases, the fleet determinism contract
// (byte-identity with the single-device solver, host-thread invariance) and
// partition-scoped fault injection (one killed device leaves independent
// devices clean).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/solver.h"
#include "fleet/comm.h"
#include "fleet/fleet.h"
#include "fleet_fault_scenarios.h"
#include "fleet/partition.h"
#include "fleet/shard.h"
#include "gen/banded.h"
#include "gen/random_lower.h"
#include "graph/dag.h"
#include "graph/levels.h"
#include "matrix/triangular.h"
#include "sim/config.h"
#include "sim/fault.h"

namespace capellini {
namespace fleet {
namespace {

Csr TestMatrix(Idx rows = 600) {
  return MakeRandomLower({.rows = rows,
                          .avg_strict_nnz_per_row = 3.0,
                          .window = 64,
                          .empty_row_fraction = 0.1,
                          .seed = 42});
}

/// Two Val vectors with identical bytes — the fleet determinism gate (plain
/// EXPECT_EQ on doubles would also pass -0.0 == 0.0 and miss a byte flip).
bool BytesEqual(const std::vector<Val>& a, const std::vector<Val>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Val)) == 0);
}

TEST(PartitionTest, CutsCoverAllRowsAndStayMonotone) {
  const Csr lower = TestMatrix();
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kContiguousNnz, PartitionStrategy::kLevelAware}) {
    const LevelSets levels = ComputeLevelSets(lower);
    auto part = PartitionRows(lower, 4, strategy, &levels);
    ASSERT_TRUE(part.ok()) << PartitionStrategyName(strategy);
    ASSERT_EQ(part->cuts.size(), 5u);
    EXPECT_EQ(part->cuts.front(), 0);
    EXPECT_EQ(part->cuts.back(), lower.rows());
    Idx covered = 0;
    for (int d = 0; d < part->num_devices(); ++d) {
      EXPECT_LE(part->RowBegin(d), part->RowEnd(d));
      covered += part->RowCount(d);
    }
    EXPECT_EQ(covered, lower.rows());
    // DeviceOf agrees with the blocks.
    for (Idx r = 0; r < lower.rows(); ++r) {
      const int d = part->DeviceOf(r);
      EXPECT_GE(r, part->RowBegin(d));
      EXPECT_LT(r, part->RowEnd(d));
    }
  }
}

TEST(PartitionTest, MoreDevicesThanRowsYieldsEmptyBlocks) {
  const Csr lower = MakeBidiagonal(3);
  auto part =
      PartitionRows(lower, 8, PartitionStrategy::kContiguousNnz, nullptr);
  ASSERT_TRUE(part.ok());
  EXPECT_EQ(part->num_devices(), 8);
  Idx covered = 0;
  int empty = 0;
  for (int d = 0; d < 8; ++d) {
    covered += part->RowCount(d);
    if (part->RowCount(d) == 0) ++empty;
  }
  EXPECT_EQ(covered, 3);
  EXPECT_GE(empty, 5);  // at most 3 devices can hold a row
}

TEST(PartitionTest, SingleDeviceIsOneBlockWithNoCrossEdges) {
  const Csr lower = TestMatrix(128);
  auto part =
      PartitionRows(lower, 1, PartitionStrategy::kLevelAware, nullptr);
  ASSERT_TRUE(part.ok());
  EXPECT_EQ(part->num_devices(), 1);
  EXPECT_EQ(part->RowCount(0), 128);
  EXPECT_EQ(CountCrossEdges(lower, *part), 0);
}

TEST(PartitionTest, DiagonalOnlyMatrixHasNoCrossEdges) {
  // Unit diagonal only: no dependencies, so any cut set has an empty
  // boundary.
  const Idx rows = 97;
  std::vector<Idx> row_ptr(static_cast<std::size_t>(rows) + 1);
  std::vector<Idx> col_idx(static_cast<std::size_t>(rows));
  for (Idx r = 0; r <= rows; ++r) row_ptr[static_cast<std::size_t>(r)] = r;
  for (Idx r = 0; r < rows; ++r) col_idx[static_cast<std::size_t>(r)] = r;
  const Csr diag(rows, rows, std::move(row_ptr), std::move(col_idx),
                 std::vector<Val>(static_cast<std::size_t>(rows), 1.0));
  ASSERT_EQ(diag.nnz(), 97);
  for (const int k : {2, 3, 7, 97}) {
    auto part =
        PartitionRows(diag, k, PartitionStrategy::kContiguousNnz, nullptr);
    ASSERT_TRUE(part.ok());
    EXPECT_EQ(CountCrossEdges(diag, *part), 0) << "k=" << k;
  }
}

TEST(PartitionTest, SingletonPartitionsCountEveryDagEdge) {
  // One row per device: every strictly-lower nonzero crosses a cut, so the
  // boundary size must equal the dependency DAG's edge count exactly.
  const Csr lower = TestMatrix(200);
  // Uniform weights force exact one-row blocks (nnz weights would merge
  // light rows and leave some devices empty — legal, but not the identity
  // this test pins down).
  const std::vector<double> uniform(static_cast<std::size_t>(lower.rows()),
                                    1.0);
  auto part = PartitionRows(lower, static_cast<int>(lower.rows()),
                            PartitionStrategy::kContiguousNnz, nullptr,
                            uniform);
  ASSERT_TRUE(part.ok());
  for (int d = 0; d < part->num_devices(); ++d) {
    EXPECT_LE(part->RowCount(d), 1);
  }
  EXPECT_EQ(CountCrossEdges(lower, *part), DependencyDag(lower).num_edges());
}

TEST(PartitionTest, RejectsBadInputs) {
  const Csr lower = TestMatrix(32);
  EXPECT_FALSE(
      PartitionRows(lower, 0, PartitionStrategy::kContiguousNnz).ok());
  EXPECT_FALSE(
      PartitionRows(lower, -2, PartitionStrategy::kContiguousNnz).ok());
}

FleetConfig TestFleetConfig(int devices) {
  FleetConfig config;
  config.num_devices = devices;
  config.device = sim::TinyTestDevice();
  return config;
}

TEST(FleetTest, SingleDeviceIsByteIdenticalToSolver) {
  const Csr lower = TestMatrix();
  const ReferenceProblem problem = MakeReferenceProblem(lower, 11);
  SolverOptions solver_options;
  solver_options.device = sim::TinyTestDevice();
  const Solver solver(lower, solver_options);
  auto solo = solver.Solve(Algorithm::kCapellini, problem.b);
  ASSERT_TRUE(solo.ok());

  DeviceFleet one(TestFleetConfig(1));
  auto result = FleetSolver(&one).Solve(solver, problem.b);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok());
  EXPECT_TRUE(BytesEqual(result->x, solo->x));
  EXPECT_EQ(result->stats.cross_edges, 0);
  EXPECT_EQ(result->stats.total_messages, 0u);
}

TEST(FleetTest, MultiDeviceMatchesSingleDeviceBytes) {
  const Csr lower = TestMatrix();
  const ReferenceProblem problem = MakeReferenceProblem(lower, 23);
  SolverOptions solver_options;
  solver_options.device = sim::TinyTestDevice();
  const Solver solver(lower, solver_options);
  auto solo = solver.Solve(Algorithm::kCapellini, problem.b);
  ASSERT_TRUE(solo.ok());

  for (const int k : {2, 4}) {
    DeviceFleet devices(TestFleetConfig(k));
    auto result = FleetSolver(&devices).Solve(solver, problem.b);
    ASSERT_TRUE(result.ok()) << "k=" << k;
    ASSERT_TRUE(result->status.ok()) << "k=" << k;
    EXPECT_TRUE(BytesEqual(result->x, solo->x)) << "k=" << k;
    EXPECT_GT(result->stats.makespan_cycles, 0u);
    EXPECT_GE(result->stats.critical_device, 0);
  }
}

/// The simulated outcome of a fleet solve apart from x: the makespan, the
/// message totals and every device's cycles and status.
std::string SimulatedOutcome(const FleetResult& result) {
  const FleetStats& stats = result.stats;
  std::string out = result.status.ToString() +
                    " makespan=" + std::to_string(stats.makespan_cycles) +
                    " messages=" + std::to_string(stats.total_messages) +
                    " bytes=" + std::to_string(stats.total_comm_bytes);
  for (const DeviceStats& ds : stats.devices) {
    out += " [" + std::to_string(ds.cycles) + ' ' + ds.status.ToString() + ']';
  }
  return out;
}

TEST(FleetTest, HostThreadCountNeverChangesResults) {
  const Csr lower = TestMatrix();
  const ReferenceProblem problem = MakeReferenceProblem(lower, 31);
  const Solver solver(lower, SolverOptions{.device = sim::TinyTestDevice()});

  std::vector<Val> reference;
  std::string reference_outcome;
  for (const int host_threads : {1, 2, 4, 8}) {
    FleetConfig config = TestFleetConfig(4);
    config.host_threads = host_threads;
    DeviceFleet devices(config);
    auto result = FleetSolver(&devices).Solve(solver, problem.b);
    ASSERT_TRUE(result.ok()) << "host_threads=" << host_threads;
    ASSERT_TRUE(result->status.ok());
    if (reference.empty()) {
      reference = result->x;
      reference_outcome = SimulatedOutcome(*result);
    } else {
      // Bytes AND simulated timing: the comm schedule is fixed by the
      // partition, not by which host thread delivered a message first.
      EXPECT_TRUE(BytesEqual(result->x, reference))
          << "host_threads=" << host_threads;
      EXPECT_EQ(SimulatedOutcome(*result), reference_outcome)
          << "host_threads=" << host_threads;
    }
  }

  // The same under faults: a killed device and a never-published row end
  // the same way, and recover the same way, on any number of host threads.
  for (const FleetFaultScenario& scenario : FleetFaultScenarios()) {
    for (const bool recovery : {false, true}) {
      std::vector<Val> fault_x;
      std::string fault_outcome;
      for (const int host_threads : {1, 2, 4, 8}) {
        std::vector<sim::FaultInjector> injectors;
        auto result =
            RunFleetFaultScenario(scenario, host_threads, recovery, injectors);
        ASSERT_TRUE(result.ok()) << scenario.name;
        std::string outcome = SimulatedOutcome(*result);
        for (const sim::FaultInjector& injector : injectors) {
          outcome += " faults=" + std::to_string(injector.counts().total());
        }
        if (fault_outcome.empty()) {
          EXPECT_FALSE(result->stats.devices[1].status.ok()) << scenario.name;
          fault_x = result->x;
          fault_outcome = outcome;
        } else {
          EXPECT_TRUE(BytesEqual(result->x, fault_x))
              << scenario.name << " host_threads=" << host_threads;
          EXPECT_EQ(outcome, fault_outcome)
              << scenario.name << " host_threads=" << host_threads;
        }
      }
    }
  }
}

TEST(FleetTest, MessagesAreDeduplicatedCrossEdgesAreNot) {
  // Rows 3 and 4 both read row 0. Device 1 owns rows 3 and 4, so two
  // nonzeros cross the cut but device 1 fetches x_0 once.
  const Csr lower(5, 5, {0, 1, 3, 5, 7, 9}, {0, 0, 1, 1, 2, 0, 3, 0, 4},
                  {2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0});
  const ReferenceProblem problem = MakeReferenceProblem(lower, 5);
  const Solver solver(lower, SolverOptions{.device = sim::TinyTestDevice()});
  FleetConfig config = TestFleetConfig(2);
  config.strategy = PartitionStrategy::kContiguousNnz;
  DeviceFleet devices(config);
  auto result = FleetSolver(&devices).Solve(solver, problem.b);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok());
  ASSERT_EQ(result->partition.RowBegin(1), 3);
  ASSERT_EQ(result->partition.RowEnd(1), 5);
  EXPECT_EQ(result->stats.cross_edges, 2);
  EXPECT_EQ(result->stats.total_messages, 1u);
  EXPECT_EQ(result->stats.devices[1].in_messages, 1u);
  EXPECT_EQ(result->stats.devices[0].out_messages, 1u);
}

TEST(FleetTest, EmptyBlocksSolveCleanly) {
  const Csr lower = MakeBidiagonal(5);
  const ReferenceProblem problem = MakeReferenceProblem(lower, 3);
  const Solver solver(lower, SolverOptions{.device = sim::TinyTestDevice()});
  DeviceFleet devices(TestFleetConfig(8));  // more devices than rows
  auto result = FleetSolver(&devices).Solve(solver, problem.b);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok());
  for (std::size_t i = 0; i < result->x.size(); ++i) {
    EXPECT_DOUBLE_EQ(result->x[i], problem.x_true[i]) << "row " << i;
  }
}

TEST(FleetTest, CommChargesLatencyAndSerializesLinks) {
  CommModel comm(CommConfig{.latency_cycles = 100,
                            .bandwidth_bytes_per_cycle = 4.0,
                            .bytes_per_message = 12},
                 2);
  // 12 bytes at 4 B/cycle = 3 wire cycles + 100 latency.
  EXPECT_EQ(comm.Deliver(0, 1, 1000), 1103u);
  // Same link, same publish cycle: the second message queues behind the
  // first's wire time (departs at 1003).
  EXPECT_EQ(comm.Deliver(0, 1, 1000), 1106u);
  EXPECT_EQ(comm.total_messages(), 2u);
  EXPECT_EQ(comm.total_bytes(), 24u);
}

TEST(FleetTest, ScopedFaultPlanKillsOnePartitionOthersFinish) {
  // A banded chain: every device depends on its predecessor, so killing the
  // MIDDLE device must leave device 0 clean, fail device 1 with a device
  // error, and fail the downstream devices with upstream errors.
  const Csr lower = MakeBanded({.rows = 256, .bandwidth = 4, .fill = 0.8});
  const ReferenceProblem problem = MakeReferenceProblem(lower, 13);
  const Solver solver(lower, SolverOptions{.device = sim::TinyTestDevice()});

  FleetConfig config = TestFleetConfig(4);
  config.device.no_progress_cycles = 30'000;  // fast watchdog
  config.strategy = PartitionStrategy::kContiguousNnz;
  DeviceFleet devices(config);

  // First find device 1's row block, then scope a kill-plan to exactly it.
  auto dry = FleetSolver(&devices).Solve(solver, problem.b);
  ASSERT_TRUE(dry.ok());
  ASSERT_TRUE(dry->status.ok());
  const Idx victim_begin = dry->partition.RowBegin(1);
  const Idx victim_end = dry->partition.RowEnd(1);
  ASSERT_LT(victim_begin, victim_end);

  sim::FaultPlan plan;
  plan.seed = 77;
  plan.drop_publish_rate = 1.0;  // every publish in scope is dropped
  plan.row_begin = victim_begin;
  plan.row_end = victim_end;
  std::vector<sim::FaultInjector> injectors(4);
  for (int d = 0; d < 4; ++d) {
    injectors[static_cast<std::size_t>(d)].Reseed(plan);
    devices.set_fault_injector(d, &injectors[static_cast<std::size_t>(d)]);
  }

  auto result = FleetSolver(&devices).Solve(solver, problem.b);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->status.ok());

  const std::vector<DeviceStats>& ds = result->stats.devices;
  ASSERT_EQ(ds.size(), 4u);
  // Device 0 is upstream of the fault scope: clean, and its rows are exact.
  EXPECT_TRUE(ds[0].status.ok());
  for (Idx r = 0; r < ds[0].row_end; ++r) {
    EXPECT_DOUBLE_EQ(result->x[static_cast<std::size_t>(r)],
                     problem.x_true[static_cast<std::size_t>(r)]);
  }
  // The victim died on its own device (watchdog deadlock: its local rows
  // spin on dropped flags); dependents failed fast on the upstream loss.
  EXPECT_EQ(ds[1].status.code(), StatusCode::kDeadlock);
  EXPECT_EQ(ds[2].status.code(), StatusCode::kDeadlock);
  EXPECT_EQ(ds[3].status.code(), StatusCode::kDeadlock);
  // Only the victim's injector fired: the plan's row scope excluded every
  // other device's rows.
  EXPECT_GT(injectors[1].counts().total(), 0u);
  EXPECT_EQ(injectors[0].counts().total(), 0u);
  EXPECT_EQ(injectors[2].counts().total(), 0u);
  EXPECT_EQ(injectors[3].counts().total(), 0u);
}

// --- ShardedSolveService placement-ledger reconciliation (PR 9) ------------

SolverOptions TinySolverOptions() {
  return SolverOptions{.device = sim::TinyTestDevice()};
}

Csr ShardMatrix(Idx components_per_level, std::uint64_t seed) {
  return MakeRandomLower({.rows = components_per_level * 6,
                          .avg_strict_nnz_per_row = 2.0,
                          .window = 32,
                          .empty_row_fraction = 0.0,
                          .seed = seed});
}

TEST(ShardTest, LedgerDropsEvictedEntriesOnReconcile) {
  // Regression for the grow-only ledger: device 0 holds a BIG matrix,
  // device 1 a small one. Evicting the big matrix from device 0's registry
  // must let the next placement land on device 0 — without reconciliation
  // the stale ledger keeps pricing device 0 as the heavier shard forever.
  ShardedSolveService shard({.num_devices = 2});
  auto big = shard.Register(ShardMatrix(300, 1), "big", TinySolverOptions());
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->device, 0);  // empty fleet: ties go to device 0
  auto small =
      shard.Register(ShardMatrix(20, 2), "small", TinySolverOptions());
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->device, 1);  // big > small, so device 1 was lighter

  const double placed_before = shard.PlacedCostMs(0);
  EXPECT_GT(placed_before, 0.0);
  ASSERT_TRUE(shard.registry(0).Evict(big->handle));

  // The next placement reconciles: device 0's ledger empties and wins.
  auto next =
      shard.Register(ShardMatrix(20, 3), "next", TinySolverOptions());
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->device, 0);
  // Only "next" remains on device 0's ledger — the evicted cost is gone.
  EXPECT_LT(shard.PlacedCostMs(0), placed_before);
}

TEST(ShardTest, LedgerRepricesFromObservedCosts) {
  // The ledger must track CostModel::EstimateMs(), not the analytic seed it
  // was placed with: feed the cost model observations and check the next
  // reconcile reprices the device.
  ShardedSolveService shard({.num_devices = 1});
  auto handle = shard.Register(ShardMatrix(50, 4), "m", TinySolverOptions());
  ASSERT_TRUE(handle.ok());
  const double seeded = shard.PlacedCostMs(0);

  const serve::MatrixRegistry::EntryRef entry =
      shard.registry(0).TryPeek(handle->handle);
  ASSERT_NE(entry, nullptr);
  const double observed = seeded * 16.0 + 1.0;
  entry->cost.Observe(observed);
  EXPECT_DOUBLE_EQ(shard.PlacedCostMs(0), seeded);  // not reconciled yet

  // Any placement decision reconciles every device's ledger.
  ASSERT_TRUE(
      shard.Register(ShardMatrix(20, 5), "other", TinySolverOptions()).ok());
  EXPECT_GT(shard.PlacedCostMs(0), observed * 0.9);
}

TEST(ShardTest, ApplyDeltaRoutesToOwnerAndRefreshesLedger) {
  ShardedSolveService shard({.num_devices = 2});
  const Csr matrix = ShardMatrix(40, 6);
  auto a = shard.Register(matrix, "a", TinySolverOptions());
  auto b = shard.Register(ShardMatrix(40, 7), "b", TinySolverOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_NE(a->device, b->device);

  const update::DeltaBatch batch =
      update::MakeRandomBatch(matrix, 8, /*structural=*/true, 99);
  auto report = shard.ApplyDelta(*a, batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->epoch, 1u);
  EXPECT_FALSE(report->value_only);
  EXPECT_GT(report->rows_releveled, 0);
  // The update hit the owning device's registry only.
  EXPECT_EQ(shard.registry(a->device).Snapshot().updates, 1u);
  EXPECT_EQ(shard.registry(b->device).Snapshot().updates, 0u);
  // The ledger entry was refreshed from the post-update cost model.
  const serve::MatrixRegistry::EntryRef entry =
      shard.registry(a->device).TryPeek(a->handle);
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(shard.PlacedCostMs(a->device), entry->cost.EstimateMs());

  // Out-of-range devices are rejected, matching Submit's contract.
  auto bad = shard.ApplyDelta(ShardedHandle{7, a->handle}, batch);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// --- Fleet self-healing (PR 10, DESIGN.md §4j) ------------------------------

TEST(FaultTest, ScopedTidOffsetRestoresOnExit) {
  sim::FaultInjector injector;
  injector.set_tid_offset(5);
  {
    sim::ScopedTidOffset guard(&injector, 42);
    EXPECT_EQ(injector.tid_offset(), 42);
  }
  EXPECT_EQ(injector.tid_offset(), 5);
  // Null injector: the guard must be a no-op, not a crash.
  sim::ScopedTidOffset null_guard(nullptr, 7);
}

FleetConfig RecoveryFleetConfig(int devices) {
  FleetConfig config;
  config.num_devices = devices;
  config.device = sim::TinyTestDevice();
  config.device.no_progress_cycles = 30'000;  // fast watchdog
  config.strategy = PartitionStrategy::kContiguousNnz;
  config.host_threads = 1;
  config.recovery.enabled = true;
  return config;
}

/// Kill-one-device scenario: a banded chain (every partition depends on its
/// predecessor) with a drop-every-publish injector on `victim` only.
struct KillScenario {
  Csr lower = MakeBanded({.rows = 256, .bandwidth = 4, .fill = 0.8});
  ReferenceProblem problem = MakeReferenceProblem(lower, 13);
  Solver solver{lower, SolverOptions{.device = sim::TinyTestDevice()}};

  Expected<FleetResult> Run(int devices, int victim, std::uint64_t seed = 77,
                            bool recovery = true) {
    FleetConfig config = RecoveryFleetConfig(devices);
    config.recovery.enabled = recovery;
    DeviceFleet fleet(config);
    sim::FaultPlan plan;
    plan.seed = seed;
    plan.drop_publish_rate = 1.0;
    injector.Reseed(plan);
    if (victim >= 0) fleet.set_fault_injector(victim, &injector);
    return FleetSolver(&fleet).Solve(solver, problem.b);
  }

  std::vector<Val> CleanX(int devices) {
    auto clean = Run(devices, /*victim=*/-1, 0, /*recovery=*/false);
    EXPECT_TRUE(clean.ok() && clean->status.ok());
    return clean->x;
  }

  sim::FaultInjector injector;
};

TEST(FleetRecoveryTest, SurvivorRungRecoversKilledMiddleDevice) {
  KillScenario scenario;
  const std::vector<Val> clean = scenario.CleanX(4);
  auto result = scenario.Run(4, /*victim=*/1);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_TRUE(result->verification.passed);
  EXPECT_TRUE(BytesEqual(result->x, clean));

  // The victim deadlocked on-device and re-executed on the designated
  // survivor: device 0, the lowest-indexed clean first pass.
  const FleetStats& stats = result->stats;
  ASSERT_GE(stats.failovers.size(), 1u);
  const FailoverRecord& victim = stats.failovers.front();
  EXPECT_EQ(victim.device, 1);
  EXPECT_FALSE(victim.upstream_induced);
  EXPECT_EQ(victim.recovered_on, 0);
  EXPECT_TRUE(victim.verified);
  // Downstream partitions never launched (fail-fast on the upstream loss)
  // and recovered on their own, presumed-healthy devices.
  for (std::size_t i = 1; i < stats.failovers.size(); ++i) {
    const FailoverRecord& record = stats.failovers[i];
    EXPECT_TRUE(record.upstream_induced);
    EXPECT_EQ(record.recovered_on, record.device);
  }
  // First-pass outcomes stay visible next to the recovery markers.
  EXPECT_EQ(stats.devices[1].status.code(), StatusCode::kDeadlock);
  EXPECT_TRUE(stats.devices[1].failed_over);
  EXPECT_EQ(stats.devices[1].recovered_on, 0);
  EXPECT_GT(stats.rows_reexecuted, 0u);
  EXPECT_GE(stats.device_rung_recoveries, stats.failovers.size());
}

TEST(FleetRecoveryTest, HostRungRecoversWhenNoSurvivorExists) {
  // Killing device 0 of 2 drags device 1 down too (the chain), so no device
  // rung is available for the victim: the host serial rung must heal it,
  // bit-for-bit, and device 1 then recovers on itself.
  KillScenario scenario;
  const std::vector<Val> clean = scenario.CleanX(2);
  auto result = scenario.Run(2, /*victim=*/0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_TRUE(result->verification.passed);
  EXPECT_TRUE(BytesEqual(result->x, clean));

  ASSERT_EQ(result->stats.failovers.size(), 2u);
  EXPECT_EQ(result->stats.failovers[0].device, 0);
  EXPECT_EQ(result->stats.failovers[0].recovered_on, kHostExecutor);
  EXPECT_EQ(result->stats.failovers[1].device, 1);
  EXPECT_EQ(result->stats.failovers[1].recovered_on, 1);
  EXPECT_EQ(result->stats.host_rung_recoveries, 1u);
  EXPECT_EQ(result->stats.device_rung_recoveries, 1u);
}

TEST(FleetRecoveryTest, SameSeedReplaysIdenticalFailoverPath) {
  KillScenario scenario;
  auto first = scenario.Run(4, /*victim=*/2, /*seed=*/123);
  auto replay = scenario.Run(4, /*victim=*/2, /*seed=*/123);
  ASSERT_TRUE(first.ok() && replay.ok());
  ASSERT_TRUE(first->status.ok() && replay->status.ok());
  EXPECT_TRUE(BytesEqual(first->x, replay->x));
  ASSERT_EQ(first->stats.failovers.size(), replay->stats.failovers.size());
  for (std::size_t i = 0; i < first->stats.failovers.size(); ++i) {
    const FailoverRecord& a = first->stats.failovers[i];
    const FailoverRecord& b = replay->stats.failovers[i];
    EXPECT_EQ(a.device, b.device);
    EXPECT_EQ(a.upstream_induced, b.upstream_induced);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.recovered_on, b.recovered_on);
    EXPECT_EQ(a.verified, b.verified);
  }
}

TEST(FleetRecoveryTest, ZeroFaultRunIsByteIdenticalWithRecoveryEnabled) {
  KillScenario scenario;
  const std::vector<Val> plain = scenario.CleanX(4);
  auto armed = scenario.Run(4, /*victim=*/-1, 0, /*recovery=*/true);
  ASSERT_TRUE(armed.ok());
  EXPECT_TRUE(armed->status.ok());
  EXPECT_TRUE(BytesEqual(armed->x, plain));
  EXPECT_TRUE(armed->stats.failovers.empty());
  EXPECT_EQ(armed->stats.rows_reexecuted, 0u);
}

TEST(FleetStatsTest, MakespanExcludesFailedDevices) {
  // Recovery off, last device killed: the makespan/critical-device argmax
  // must come from the completed launches only (a failed launch has no cycle
  // count — the watchdog returns an error instead of stats).
  KillScenario scenario;
  auto result = scenario.Run(2, /*victim=*/1, 77, /*recovery=*/false);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->status.ok());
  EXPECT_TRUE(result->stats.devices[0].status.ok());
  EXPECT_EQ(result->stats.critical_device, 0);
  EXPECT_EQ(result->stats.makespan_cycles, result->stats.devices[0].cycles);
  EXPECT_GT(result->stats.makespan_cycles, 0u);

  // Every launch failed: no device can be critical.
  auto all_dead = scenario.Run(2, /*victim=*/0, 77, /*recovery=*/false);
  ASSERT_TRUE(all_dead.ok());
  EXPECT_FALSE(all_dead->status.ok());
  EXPECT_EQ(all_dead->stats.critical_device, -1);
  EXPECT_EQ(all_dead->stats.makespan_cycles, 0u);
}

// --- Degraded-mode sharded serving (DeviceHealthTracker) --------------------

TEST(HealthTrackerTest, WindowModeTripsOnFailureRate) {
  DeviceHealthTracker tracker(1, {.threshold = 0, .window = 4, .rate = 0.5});
  // Alternating outcomes never reach 2 consecutive failures, but once the
  // window is full at a 50% failure rate the device must quarantine.
  tracker.Report(0, true);
  tracker.Report(0, false);
  tracker.Report(0, true);
  EXPECT_EQ(tracker.state(0), DeviceState::kHealthy);
  tracker.Report(0, false);  // window full: {F, ok, F, ok} -> 2/4 >= 0.5
  EXPECT_EQ(tracker.state(0), DeviceState::kQuarantined);
  EXPECT_EQ(tracker.snapshot().quarantines, 1u);
}

/// A 2-device shard with matrix "sick" poisoned on device 0: its solver
/// carries a drop-every-publish injector, so every device-path solve of it
/// deadlocks until the injector is healed.
struct DegradedShard {
  explicit DegradedShard(HealthOptions health) {
    sim::FaultPlan poison;
    poison.seed = 99;
    poison.drop_publish_rate = 1.0;
    injector.Reseed(poison);

    ShardOptions options;
    options.num_devices = 2;
    options.service = serve::SolveService::DeterministicOptions();
    options.health = health;
    shard = std::make_unique<ShardedSolveService>(options);

    SolverOptions poisoned = FastWatchdogOptions();
    poisoned.kernel_options.fault_injector = &injector;
    auto registered = shard->Register(matrix, "sick", poisoned);
    EXPECT_TRUE(registered.ok());
    handle = *registered;
    EXPECT_EQ(handle.device, 0);
  }

  static SolverOptions FastWatchdogOptions() {
    SolverOptions options = TinySolverOptions();
    options.device.no_progress_cycles = 30'000;
    return options;
  }

  void Heal() { injector.Reseed(sim::FaultPlan{}); }  // disabled plan

  serve::ServeResult Solve(std::uint64_t seed) {
    const ReferenceProblem problem = MakeReferenceProblem(matrix, seed);
    serve::RequestOptions request;
    request.algorithm = Algorithm::kCapellini;  // device path
    auto submitted = shard->Submit(handle, problem.b, request);
    EXPECT_TRUE(submitted.ok()) << submitted.status().ToString();
    return submitted->get();
  }

  Csr matrix = MakeBanded({.rows = 160, .bandwidth = 3, .fill = 0.8});
  sim::FaultInjector injector;
  std::unique_ptr<ShardedSolveService> shard;
  ShardedHandle handle;
};

TEST(ShardHealthTest, QuarantineFailsOverToSurvivorAndProbesReQuarantine) {
  DegradedShard fixture({.threshold = 2, .probe_cooldown = 2});
  const Solver clean(fixture.matrix, DegradedShard::FastWatchdogOptions());

  // Two consecutive deadlocks quarantine device 0.
  EXPECT_EQ(fixture.Solve(0).status.code(), StatusCode::kDeadlock);
  EXPECT_EQ(fixture.Solve(1).status.code(), StatusCode::kDeadlock);
  EXPECT_EQ(fixture.shard->health().state(0), DeviceState::kQuarantined);

  // Deflected submits serve on the survivor (device 1) with the owner's
  // matrix re-registered MINUS the fault seam — the clean bytes, exactly.
  for (std::uint64_t seed = 2; seed < 4; ++seed) {
    const serve::ServeResult result = fixture.Solve(seed);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    const ReferenceProblem problem =
        MakeReferenceProblem(fixture.matrix, seed);
    auto expect = clean.Solve(Algorithm::kCapellini, problem.b);
    ASSERT_TRUE(expect.ok());
    EXPECT_TRUE(BytesEqual(result.solve.x, expect->x));
  }

  // Cooldown elapsed: the next submit is the half-open probe. It runs on the
  // still-poisoned owner, fails, and re-quarantines.
  EXPECT_EQ(fixture.Solve(4).status.code(), StatusCode::kDeadlock);
  EXPECT_EQ(fixture.shard->health().state(0), DeviceState::kQuarantined);

  const ShardHealthStats stats = fixture.shard->health_stats();
  EXPECT_EQ(stats.health.quarantines, 2u);  // initial trip + failed probe
  EXPECT_EQ(stats.health.probes, 1u);
  EXPECT_EQ(stats.health.probe_failures, 1u);
  EXPECT_EQ(stats.health.reinstatements, 0u);
  EXPECT_EQ(stats.failover_submits, 2u);
  EXPECT_EQ(stats.failover_registrations, 1u);  // cached after the first
  // The poisoned device completed zero OK requests; the survivor took them.
  EXPECT_EQ(fixture.shard->stats(0).totals().requests, 0u);
  EXPECT_EQ(fixture.shard->stats(1).totals().requests, 2u);
}

TEST(ShardHealthTest, SuccessfulProbeReinstatesDevice) {
  DegradedShard fixture({.threshold = 2, .probe_cooldown = 1});
  EXPECT_EQ(fixture.Solve(0).status.code(), StatusCode::kDeadlock);
  EXPECT_EQ(fixture.Solve(1).status.code(), StatusCode::kDeadlock);
  EXPECT_EQ(fixture.shard->health().state(0), DeviceState::kQuarantined);

  fixture.Heal();  // the device "comes back": faults stop firing
  EXPECT_TRUE(fixture.Solve(2).status.ok());  // deflected to the survivor
  // Cooldown of 1 elapsed: this submit probes the healed owner and succeeds.
  EXPECT_TRUE(fixture.Solve(3).status.ok());
  EXPECT_EQ(fixture.shard->health().state(0), DeviceState::kHealthy);
  // Traffic routes home again.
  EXPECT_TRUE(fixture.Solve(4).status.ok());

  const ShardHealthStats stats = fixture.shard->health_stats();
  EXPECT_EQ(stats.health.reinstatements, 1u);
  EXPECT_EQ(stats.health.probe_failures, 0u);
  EXPECT_EQ(fixture.shard->stats(0).totals().requests, 2u);  // probe + home
}

TEST(ShardHealthTest, ExactlyOnceAccountingUnderQuarantine) {
  DegradedShard fixture({.threshold = 2, .probe_cooldown = 3});
  const int submits = 12;
  for (int i = 0; i < submits; ++i) {
    fixture.Solve(static_cast<std::uint64_t>(i));
  }
  // PR-4 invariant, fleet-wide: every submit lands in exactly one terminal
  // bucket on exactly one device; failover routing must not double-count.
  std::uint64_t ok = 0;
  std::uint64_t failures = 0;
  std::uint64_t rejections = 0;
  std::uint64_t misses = 0;
  for (int d = 0; d < 2; ++d) {
    const serve::ServiceStats::Totals totals =
        fixture.shard->stats(d).totals();
    ok += totals.requests;
    failures += totals.failures;
    rejections += totals.rejections;
    misses += totals.deadline_misses;
  }
  EXPECT_EQ(ok + failures + rejections + misses,
            static_cast<std::uint64_t>(submits));
  EXPECT_EQ(rejections, 0u);
  EXPECT_EQ(misses, 0u);
  const ShardHealthStats stats = fixture.shard->health_stats();
  EXPECT_EQ(stats.failover_submits, stats.health.deflections);
  EXPECT_EQ(ok, static_cast<std::uint64_t>(submits) - failures);
}

TEST(ShardHealthTest, AllDevicesQuarantinedRejectsSubmit) {
  sim::FaultPlan poison;
  poison.seed = 7;
  poison.drop_publish_rate = 1.0;
  sim::FaultInjector injector;
  injector.Reseed(poison);

  ShardOptions options;
  options.num_devices = 1;
  options.service = serve::SolveService::DeterministicOptions();
  options.health = {.threshold = 1, .probe_cooldown = 100};
  ShardedSolveService shard(options);
  SolverOptions poisoned = DegradedShard::FastWatchdogOptions();
  poisoned.kernel_options.fault_injector = &injector;
  const Csr matrix = MakeBanded({.rows = 160, .bandwidth = 3, .fill = 0.8});
  auto handle = shard.Register(matrix, "sick", poisoned);
  ASSERT_TRUE(handle.ok());

  serve::RequestOptions request;
  request.algorithm = Algorithm::kCapellini;
  auto first =
      shard.Submit(*handle, MakeReferenceProblem(matrix, 0).b, request);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->get().status.code(), StatusCode::kDeadlock);
  // One failure quarantined the only device: nowhere to fail over to.
  auto deflected =
      shard.Submit(*handle, MakeReferenceProblem(matrix, 1).b, request);
  EXPECT_FALSE(deflected.ok());
  EXPECT_EQ(deflected.status().code(), StatusCode::kResourceExhausted);
}

TEST(HealthTrackerTest, LostProbeTimesOutViaDeflections) {
  // A probe whose outcome never arrives (expired deadline, per-handle
  // breaker deflection — paths that skip the outcome listener) must not
  // strand the device in kProbing forever: after probe_timeout deflections
  // the probe is declared lost and the device re-enters quarantine with a
  // fresh cooldown, so probing eventually resumes.
  DeviceHealthTracker tracker(
      1, {.threshold = 1, .probe_cooldown = 0, .probe_timeout = 3});
  tracker.Report(0, true);
  EXPECT_EQ(tracker.state(0), DeviceState::kQuarantined);
  EXPECT_EQ(tracker.AdmitFor(0), DeviceHealthTracker::Admit::kProbe);
  EXPECT_EQ(tracker.state(0), DeviceState::kProbing);
  // The probe's outcome is lost; deflections accumulate toward the timeout.
  EXPECT_EQ(tracker.AdmitFor(0), DeviceHealthTracker::Admit::kDeflect);
  EXPECT_EQ(tracker.AdmitFor(0), DeviceHealthTracker::Admit::kDeflect);
  EXPECT_EQ(tracker.AdmitFor(0), DeviceHealthTracker::Admit::kDeflect);
  EXPECT_EQ(tracker.state(0), DeviceState::kQuarantined);
  EXPECT_EQ(tracker.snapshot().probe_aborts, 1u);
  // Fresh cooldown (0): the device probes again and can still reinstate.
  EXPECT_EQ(tracker.AdmitFor(0), DeviceHealthTracker::Admit::kProbe);
  tracker.Report(0, false);
  EXPECT_EQ(tracker.state(0), DeviceState::kHealthy);
  EXPECT_EQ(tracker.snapshot().reinstatements, 1u);
}

TEST(ShardHealthTest, FailedProbeSubmitAbortsBackToQuarantine) {
  DegradedShard fixture({.threshold = 2, .probe_cooldown = 1});
  EXPECT_EQ(fixture.Solve(0).status.code(), StatusCode::kDeadlock);
  EXPECT_EQ(fixture.Solve(1).status.code(), StatusCode::kDeadlock);
  EXPECT_EQ(fixture.shard->health().state(0), DeviceState::kQuarantined);

  // Kill the owner's service: the next due probe fails ADMISSION, so its
  // outcome can never arrive through the listener. The probe must abort back
  // to kQuarantined instead of sticking in kProbing (which would deflect
  // every future submit and never probe again).
  fixture.shard->service(0).Shutdown();
  EXPECT_TRUE(fixture.Solve(2).status.ok());  // deflected to the survivor
  serve::RequestOptions request;
  request.algorithm = Algorithm::kCapellini;
  auto probe = fixture.shard->Submit(
      fixture.handle, MakeReferenceProblem(fixture.matrix, 3).b, request);
  EXPECT_FALSE(probe.ok());
  EXPECT_EQ(probe.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(fixture.shard->health().state(0), DeviceState::kQuarantined);
  EXPECT_EQ(fixture.shard->health_stats().health.probe_aborts, 1u);
  // Deflected traffic keeps serving on the survivor.
  EXPECT_TRUE(fixture.Solve(4).status.ok());
}

TEST(ShardHealthTest, RetargetedFailoverEvictsStaleSurvivorCopy) {
  sim::FaultPlan poison;
  poison.seed = 99;
  poison.drop_publish_rate = 1.0;
  sim::FaultInjector injector0;
  sim::FaultInjector injector1;
  injector0.Reseed(poison);
  injector1.Reseed(poison);

  ShardOptions options;
  options.num_devices = 3;
  options.service = serve::SolveService::DeterministicOptions();
  options.health = {.threshold = 1, .probe_cooldown = 100};
  ShardedSolveService shard(options);

  const Csr matrix = MakeBanded({.rows = 160, .bandwidth = 3, .fill = 0.8});
  SolverOptions sick0 = DegradedShard::FastWatchdogOptions();
  sick0.kernel_options.fault_injector = &injector0;
  auto h0 = shard.Register(matrix, "sick0", sick0);
  ASSERT_TRUE(h0.ok());
  ASSERT_EQ(h0->device, 0);
  SolverOptions sick1 = DegradedShard::FastWatchdogOptions();
  sick1.kernel_options.fault_injector = &injector1;
  auto h1 = shard.Register(matrix, "sick1", sick1);
  ASSERT_TRUE(h1.ok());
  ASSERT_EQ(h1->device, 1);

  serve::RequestOptions request;
  request.algorithm = Algorithm::kCapellini;
  auto solve = [&](const ShardedHandle& handle, std::uint64_t seed) {
    auto submitted =
        shard.Submit(handle, MakeReferenceProblem(matrix, seed).b, request);
    EXPECT_TRUE(submitted.ok()) << submitted.status().ToString();
    return submitted->get();
  };

  // threshold 1: one deadlock quarantines device 0, and h0 fails over to
  // device 1 (the lowest-indexed healthy survivor).
  EXPECT_EQ(solve(*h0, 0).status.code(), StatusCode::kDeadlock);
  EXPECT_TRUE(solve(*h0, 1).status.ok());
  EXPECT_EQ(shard.registry(1).Snapshot().resident_entries, 2u);

  // Device 1 dies too: the next deflected submit for h0 retargets to device
  // 2 and must EVICT the superseded copy from device 1, so its byte budget
  // and placement score stop charging for a copy that will never serve.
  EXPECT_EQ(solve(*h1, 2).status.code(), StatusCode::kDeadlock);
  EXPECT_TRUE(solve(*h0, 3).status.ok());
  EXPECT_EQ(shard.registry(1).Snapshot().resident_entries, 1u);  // sick1 only
  EXPECT_EQ(shard.registry(2).Snapshot().resident_entries, 1u);  // fresh copy
  const ShardHealthStats stats = shard.health_stats();
  EXPECT_EQ(stats.failover_registrations, 2u);
  // The retargeted copy is cached: another deflected submit re-registers
  // nothing.
  EXPECT_TRUE(solve(*h0, 4).status.ok());
  EXPECT_EQ(shard.health_stats().failover_registrations, 2u);
}

}  // namespace
}  // namespace fleet
}  // namespace capellini

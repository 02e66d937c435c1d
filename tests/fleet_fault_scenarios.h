// The two K=4 fleet fault scenarios shared by golden_schedule_test (which pins
// their outcomes) and fleet_test (which checks they never depend on the host
// thread count). Every device carries its own injector with the same plan.
//
//  * kill_d1: FleetTest.ScopedFaultPlanKillsOnePartitionOthersFinish's plan,
//    dropping every publish of device 1's rows on a banded chain. Device 1
//    deadlocks; devices 2 and 3 fail on the upstream loss.
//  * drop_once: an unscoped low-rate drop plan with max_faults = 1 on the
//    golden random factor. Device 0 drops the publish of a row only device 1
//    reads, so device 0 finishes clean and device 1 fails with "was never
//    published" after delivering part of its boundary messages.
#pragma once

#include <vector>

#include "core/solver.h"
#include "fleet/fleet.h"
#include "gen/banded.h"
#include "gen/random_lower.h"
#include "matrix/triangular.h"
#include "sim/config.h"
#include "sim/fault.h"

namespace capellini {

struct FleetFaultScenario {
  const char* name;
  Csr lower;
  sim::FaultPlan plan;
};

inline fleet::FleetConfig FleetFaultConfig(int host_threads, bool recovery) {
  fleet::FleetConfig config;
  config.num_devices = 4;
  config.device = sim::TinyTestDevice();
  config.device.no_progress_cycles = 30'000;  // fast watchdog
  config.strategy = fleet::PartitionStrategy::kContiguousNnz;
  config.host_threads = host_threads;
  config.recovery.enabled = recovery;
  return config;
}

inline Solver FleetFaultSolver(const Csr& lower) {
  return Solver(lower, SolverOptions{.device = sim::TinyTestDevice()});
}

inline std::vector<FleetFaultScenario> FleetFaultScenarios() {
  FleetFaultScenario kill{"banded_kill_d1",
                          MakeBanded({.rows = 256, .bandwidth = 4,
                                      .fill = 0.8}),
                          {}};
  // Device 1's rows come from a clean solve's partition.
  const Solver solver = FleetFaultSolver(kill.lower);
  fleet::DeviceFleet clean(FleetFaultConfig(0, false));
  const auto dry = fleet::FleetSolver(&clean).Solve(
      solver, MakeReferenceProblem(kill.lower, 13).b);
  kill.plan.seed = 77;
  kill.plan.drop_publish_rate = 1.0;
  kill.plan.row_begin = dry.ok() ? dry->partition.RowBegin(1) : 0;
  kill.plan.row_end = dry.ok() ? dry->partition.RowEnd(1) : 0;

  FleetFaultScenario drop{"random_drop_once",
                          MakeRandomLower({.rows = 600,
                                           .avg_strict_nnz_per_row = 3.0,
                                           .window = 0,
                                           .empty_row_fraction = 0.1,
                                           .seed = 13}),
                          {}};
  drop.plan.seed = 2;
  drop.plan.drop_publish_rate = 0.02;
  drop.plan.max_faults = 1;
  return {kill, drop};
}

/// Solves `scenario` with a fresh injector per device; `injectors` keeps
/// them for their counts.
inline Expected<fleet::FleetResult> RunFleetFaultScenario(
    const FleetFaultScenario& scenario, int host_threads, bool recovery,
    std::vector<sim::FaultInjector>& injectors) {
  const Solver solver = FleetFaultSolver(scenario.lower);
  fleet::DeviceFleet devices(FleetFaultConfig(host_threads, recovery));
  injectors = std::vector<sim::FaultInjector>(4);
  for (int d = 0; d < 4; ++d) {
    injectors[static_cast<std::size_t>(d)].Reseed(scenario.plan);
    devices.set_fault_injector(d, &injectors[static_cast<std::size_t>(d)]);
  }
  return fleet::FleetSolver(&devices).Solve(
      solver, MakeReferenceProblem(scenario.lower, 13).b);
}

}  // namespace capellini

// Fleet self-healing: seeded device-kill recovery + degraded sharded serving
// (src/fleet recovery ladder + DeviceHealthTracker, DESIGN.md §4j).
//
//   ./bench/bench_fleet_faults                   # full sweep
//   ./bench/bench_fleet_faults --quick --json=BENCH_fleet_faults.json  # CI
//
// Part 1 — recovery sweep: for K in {2,4} x both partitioners x both
// thread-per-row algorithms, every device in turn is killed with a seeded
// drop-every-publish fault plan and the recovery-enabled fleet solve must
// heal. Fatal gates:
//   * zero-fault identity: with no injectors attached, the recovery-enabled
//     solve is byte-identical (FNV-1a) to the recovery-disabled solve and to
//     the single-device Solver::Solve;
//   * 100% recovery: every kill ends status-OK with the final stitched
//     VerifySolution passing, and the recovered solution is byte-identical
//     to the clean solve (the ladder rungs reproduce the kernel bytes);
//   * replay determinism: re-running the same seed takes the byte-identical
//     failover path (same devices, same ladder attempts, same rungs) and
//     produces the same solution checksum.
//
// Part 2 — degraded serving: a ShardedSolveService with health tracking gets
// one poisoned device (its matrix's fault injector drops every publish).
// The device is quarantined, its traffic fails over to the survivor, and
// half-open probes keep re-checking it. Fatal gates:
//   * the full trace is served on the K-1 healthy devices: every non-failed
//     request returns the clean reference bytes, and the poisoned device
//     completes zero OK requests;
//   * exactly-once accounting (PR 4): ok + failures + misses + rejections
//     across devices equals the submit count, with failovers counted
//     separately;
//   * replay determinism: a second identical trace reproduces every
//     per-request (status, checksum) pair and the same health lifecycle
//     counters.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/solver.h"
#include "fleet/fleet.h"
#include "fleet/shard.h"
#include "gen/banded.h"
#include "matrix/triangular.h"
#include "serve/replay.h"
#include "sim/fault.h"

namespace capellini::bench {
namespace {

std::uint64_t ChecksumX(const std::vector<Val>& x) {
  return serve::HashBytes(serve::kFnvSeed, x.data(), x.size() * sizeof(Val));
}

Algorithm HostAlgorithmFor(kernels::DeviceAlgorithm algorithm) {
  return algorithm == kernels::DeviceAlgorithm::kCapelliniTwoPhase
             ? Algorithm::kCapelliniTwoPhase
             : Algorithm::kCapellini;
}

/// The failover ledger, serialized for the replay-identity gate: two runs
/// recovered identically iff these strings match.
std::string RecoveryPath(const fleet::FleetStats& stats) {
  std::string path;
  for (const fleet::FailoverRecord& record : stats.failovers) {
    path += "dev=" + std::to_string(record.device);
    path += " upstream=" + std::to_string(record.upstream_induced ? 1 : 0);
    path += " attempts=[";
    for (std::size_t i = 0; i < record.attempts.size(); ++i) {
      if (i > 0) path += ",";
      path += std::to_string(record.attempts[i]);
    }
    path += "] on=" + std::to_string(record.recovered_on);
    path += " verified=" + std::to_string(record.verified ? 1 : 0);
    path += ";";
  }
  return path;
}

struct KillOutcome {
  bool recovered = false;       // status OK + final verification passed
  bool bytes_match = false;     // solution == clean-solve bytes
  bool replay_match = false;    // second run: same path + same checksum
  std::string path;             // serialized failover ladder
  std::uint64_t device_rungs = 0;
  std::uint64_t host_rungs = 0;
  std::uint64_t rows_reexecuted = 0;
};

struct SweepCase {
  int devices = 0;
  fleet::PartitionStrategy strategy = fleet::PartitionStrategy::kContiguousNnz;
  kernels::DeviceAlgorithm algorithm =
      kernels::DeviceAlgorithm::kCapelliniWritingFirst;
  bool zero_fault_identical = false;
  std::vector<KillOutcome> kills;  // one per victim device
};

fleet::FleetConfig SweepFleetConfig(const SweepCase& sweep, bool recovery) {
  fleet::FleetConfig config;
  config.num_devices = sweep.devices;
  config.device = sim::TinyTestDevice();
  config.device.no_progress_cycles = 30'000;  // fast watchdog
  config.strategy = sweep.strategy;
  config.algorithm = sweep.algorithm;
  config.host_threads = 1;
  config.recovery.enabled = recovery;
  return config;
}

/// One recovery-enabled solve with device `victim` killed (drop-every-publish
/// plan on its injector only — the model is a sick DEVICE, so the plan rides
/// on the victim's hardware seam, not on the rows).
Expected<fleet::FleetResult> RunKilled(const SweepCase& sweep,
                                       const Solver& solver,
                                       std::span<const Val> b, int victim,
                                       std::uint64_t seed) {
  fleet::DeviceFleet devices(SweepFleetConfig(sweep, /*recovery=*/true));
  sim::FaultPlan plan;
  plan.seed = seed;
  plan.drop_publish_rate = 1.0;
  sim::FaultInjector injector;
  injector.Reseed(plan);
  devices.set_fault_injector(victim, &injector);
  return fleet::FleetSolver(&devices).Solve(solver, b);
}

Expected<SweepCase> RunSweepCase(int devices,
                                 fleet::PartitionStrategy strategy,
                                 kernels::DeviceAlgorithm algorithm, Idx rows,
                                 std::uint64_t base_seed) {
  SweepCase sweep;
  sweep.devices = devices;
  sweep.strategy = strategy;
  sweep.algorithm = algorithm;

  // A banded chain: every partition depends on its predecessor, so a killed
  // device drags every downstream partition into the recovery path too.
  const Csr lower = MakeBanded({.rows = rows, .bandwidth = 4, .fill = 0.8});
  const ReferenceProblem problem = MakeReferenceProblem(lower, 13);
  const Solver solver(lower, SolverOptions{.device = sim::TinyTestDevice()});

  auto solo = solver.Solve(HostAlgorithmFor(algorithm), problem.b);
  if (!solo.ok()) return solo.status();
  const std::uint64_t solo_checksum = ChecksumX(solo->x);

  // Zero-fault gate: plain solve, then the recovery-enabled solve, must both
  // reproduce the single-device bytes (recovery never perturbs clean runs).
  fleet::DeviceFleet plain(SweepFleetConfig(sweep, /*recovery=*/false));
  auto clean = fleet::FleetSolver(&plain).Solve(solver, problem.b);
  if (!clean.ok()) return clean.status();
  if (!clean->status.ok()) return clean->status;
  const std::uint64_t clean_checksum = ChecksumX(clean->x);

  fleet::DeviceFleet armed(SweepFleetConfig(sweep, /*recovery=*/true));
  auto clean_armed = fleet::FleetSolver(&armed).Solve(solver, problem.b);
  if (!clean_armed.ok()) return clean_armed.status();
  if (!clean_armed->status.ok()) return clean_armed->status;
  sweep.zero_fault_identical = clean_checksum == solo_checksum &&
                               ChecksumX(clean_armed->x) == clean_checksum &&
                               clean_armed->stats.failovers.empty();

  for (int victim = 0; victim < devices; ++victim) {
    if (clean->partition.RowBegin(victim) == clean->partition.RowEnd(victim)) {
      continue;  // empty block: nothing to kill
    }
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(victim);
    KillOutcome kill;
    auto first = RunKilled(sweep, solver, problem.b, victim, seed);
    if (!first.ok()) return first.status();
    kill.recovered = first->status.ok() && first->verification.passed &&
                     !first->stats.failovers.empty();
    kill.bytes_match = ChecksumX(first->x) == clean_checksum;
    kill.path = RecoveryPath(first->stats);
    kill.device_rungs = first->stats.device_rung_recoveries;
    kill.host_rungs = first->stats.host_rung_recoveries;
    kill.rows_reexecuted = first->stats.rows_reexecuted;

    auto replay = RunKilled(sweep, solver, problem.b, victim, seed);
    if (!replay.ok()) return replay.status();
    kill.replay_match = RecoveryPath(replay->stats) == kill.path &&
                        ChecksumX(replay->x) == ChecksumX(first->x);
    sweep.kills.push_back(std::move(kill));
  }
  return sweep;
}

// --- Part 2: degraded sharded serving --------------------------------------

struct RequestRecord {
  StatusCode code = StatusCode::kOk;
  std::uint64_t checksum = 0;  // 0 for failed requests
};

struct DegradedRun {
  std::vector<RequestRecord> journal;
  fleet::ShardHealthStats health;
  std::uint64_t ok = 0;
  std::uint64_t failures = 0;
  std::uint64_t rejections = 0;
  std::uint64_t misses = 0;
  std::uint64_t owner_ok = 0;    // OK completions on the poisoned device
  std::uint64_t submitted = 0;
  bool reference_bytes = true;   // every OK result matched the clean solver
};

SolverOptions DegradedSolverOptions() {
  SolverOptions options;
  options.device = sim::TinyTestDevice();
  options.device.no_progress_cycles = 30'000;
  return options;
}

/// One serialized trace (submit -> get, one request at a time, so every
/// health transition lands at a deterministic request index) over K devices
/// with device 0's matrix poisoned by a drop-every-publish injector.
Expected<DegradedRun> RunDegraded(int devices, int rounds) {
  fleet::ShardOptions options;
  options.num_devices = devices;
  options.service = serve::SolveService::DeterministicOptions();
  options.service.max_queue = 4096;
  options.health.threshold = 2;     // two consecutive failures quarantine
  options.health.probe_cooldown = 3;
  fleet::ShardedSolveService sharded(options);

  sim::FaultPlan poison;
  poison.seed = 99;
  poison.drop_publish_rate = 1.0;
  sim::FaultInjector injector;
  injector.Reseed(poison);

  // One matrix per device (least-loaded placement round-robins the first K
  // registrations). Matrix 0 carries the poisoned device seam.
  std::vector<Csr> matrices;
  std::vector<fleet::ShardedHandle> handles;
  std::vector<std::unique_ptr<Solver>> reference;  // clean solvers, no seam
  for (int i = 0; i < devices; ++i) {
    matrices.push_back(MakeBanded(
        {.rows = 120 + 16 * static_cast<Idx>(i), .bandwidth = 3, .fill = 0.8}));
    SolverOptions solver_options = DegradedSolverOptions();
    if (i == 0) solver_options.kernel_options.fault_injector = &injector;
    auto handle = sharded.Register(matrices.back(),
                                   std::string("m").append(std::to_string(i)),
                                   solver_options);
    if (!handle.ok()) return handle.status();
    if (handle->device != i) {
      return InvalidArgument("expected round-robin placement: matrix " +
                      std::to_string(i) + " landed on device " +
                      std::to_string(handle->device));
    }
    handles.push_back(*handle);
    reference.push_back(
        std::make_unique<Solver>(matrices.back(), DegradedSolverOptions()));
  }

  DegradedRun run;
  serve::RequestOptions request;
  request.algorithm = Algorithm::kCapellini;  // device path; deadlocks when
                                              // the poison drops its flags
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < devices; ++i) {
      const std::uint64_t seed =
          static_cast<std::uint64_t>(round * devices + i);
      const ReferenceProblem problem =
          MakeReferenceProblem(matrices[static_cast<std::size_t>(i)], seed);
      auto submitted =
          sharded.Submit(handles[static_cast<std::size_t>(i)], problem.b,
                         request);
      if (!submitted.ok()) return submitted.status();
      ++run.submitted;
      const serve::ServeResult result = submitted->get();
      RequestRecord record;
      record.code = result.status.code();
      if (result.status.ok()) {
        record.checksum = ChecksumX(result.solve.x);
        auto expect = reference[static_cast<std::size_t>(i)]->Solve(
            Algorithm::kCapellini, problem.b);
        if (!expect.ok()) return expect.status();
        if (record.checksum != ChecksumX(expect->x)) {
          run.reference_bytes = false;
        }
      }
      run.journal.push_back(record);
    }
  }

  for (int d = 0; d < devices; ++d) {
    const serve::ServiceStats::Totals totals = sharded.stats(d).totals();
    run.ok += totals.requests;
    run.failures += totals.failures;
    run.rejections += totals.rejections;
    run.misses += totals.deadline_misses;
    if (d == 0) run.owner_ok = totals.requests;
  }
  run.health = sharded.health_stats();
  return run;
}

bool SameJournal(const DegradedRun& a, const DegradedRun& b) {
  if (a.journal.size() != b.journal.size()) return false;
  for (std::size_t i = 0; i < a.journal.size(); ++i) {
    if (a.journal[i].code != b.journal[i].code ||
        a.journal[i].checksum != b.journal[i].checksum) {
      return false;
    }
  }
  return a.health.health.quarantines == b.health.health.quarantines &&
         a.health.health.probes == b.health.health.probes &&
         a.health.health.probe_failures == b.health.health.probe_failures &&
         a.health.health.probe_aborts == b.health.health.probe_aborts &&
         a.health.health.reinstatements == b.health.health.reinstatements &&
         a.health.health.deflections == b.health.health.deflections &&
         a.health.failover_submits == b.health.failover_submits &&
         a.health.failover_registrations == b.health.failover_registrations;
}

}  // namespace
}  // namespace capellini::bench

int main(int argc, char** argv) {
  using namespace capellini;
  using namespace capellini::bench;

  bool quick = false;
  CliFlags extra;
  extra.AddBool("quick", &quick, "CI smoke: smaller matrices and traces");
  const BenchOptions options = ParseBenchFlags(argc, argv, &extra);

  const Idx rows = quick ? 192 : 448;
  const int rounds = quick ? 10 : 20;

  std::printf("fleet fault recovery sweep: %lld-row banded chain, "
              "drop-every-publish device kills\n",
              static_cast<long long>(rows));
  std::vector<SweepCase> sweeps;
  bool recovery_gate = true;
  for (const int devices : {2, 4}) {
    for (const fleet::PartitionStrategy strategy :
         {fleet::PartitionStrategy::kContiguousNnz,
          fleet::PartitionStrategy::kLevelAware}) {
      for (const kernels::DeviceAlgorithm algorithm :
           {kernels::DeviceAlgorithm::kCapelliniWritingFirst,
            kernels::DeviceAlgorithm::kCapelliniTwoPhase}) {
        auto sweep = RunSweepCase(devices, strategy, algorithm, rows,
                                  static_cast<std::uint64_t>(options.seed));
        if (!sweep.ok()) {
          std::fprintf(stderr, "sweep (K=%d %s %s) failed: %s\n", devices,
                       fleet::PartitionStrategyName(strategy),
                       kernels::DeviceAlgorithmName(algorithm),
                       sweep.status().ToString().c_str());
          return 1;
        }
        std::uint64_t device_rungs = 0;
        std::uint64_t host_rungs = 0;
        bool all_ok = sweep->zero_fault_identical;
        for (const KillOutcome& kill : sweep->kills) {
          all_ok = all_ok && kill.recovered && kill.bytes_match &&
                   kill.replay_match;
          device_rungs += kill.device_rungs;
          host_rungs += kill.host_rungs;
        }
        std::printf("  K=%d %-13s %-21s: %zu kills, rungs dev=%llu host=%llu, "
                    "zero-fault %s, recovered %s\n",
                    devices, fleet::PartitionStrategyName(strategy),
                    kernels::DeviceAlgorithmName(algorithm),
                    sweep->kills.size(),
                    static_cast<unsigned long long>(device_rungs),
                    static_cast<unsigned long long>(host_rungs),
                    sweep->zero_fault_identical ? "identical" : "DIVERGED",
                    all_ok ? "all+replayable" : "FAILED");
        recovery_gate = recovery_gate && all_ok;
        sweeps.push_back(std::move(*sweep));
      }
    }
  }
  if (!recovery_gate) {
    std::fprintf(stderr, "FATAL: fleet recovery gate failed (see above)\n");
    return 1;
  }
  std::printf("recovery gate: 100%% recovered, byte-identical, replayable "
              "-> PASS\n");

  std::printf("\ndegraded sharded serving: poisoned device 0, "
              "threshold=2 cooldown=3, %d rounds\n", rounds);
  struct DegradedPoint {
    int devices = 0;
    DegradedRun run;
    bool deterministic = false;
    bool accounted = false;
    bool survivors_served = false;
  };
  std::vector<DegradedPoint> degraded;
  bool degraded_gate = true;
  for (const int devices : {2, 4}) {
    auto first = RunDegraded(devices, rounds);
    if (!first.ok()) {
      std::fprintf(stderr, "degraded serve (K=%d) failed: %s\n", devices,
                   first.status().ToString().c_str());
      return 1;
    }
    auto replay = RunDegraded(devices, rounds);
    if (!replay.ok()) {
      std::fprintf(stderr, "degraded replay (K=%d) failed: %s\n", devices,
                   replay.status().ToString().c_str());
      return 1;
    }
    DegradedPoint point;
    point.devices = devices;
    point.deterministic = SameJournal(*first, *replay);
    // PR-4 exactly-once: every submit lands in exactly one terminal bucket;
    // failovers are routed, not double-counted.
    point.accounted = first->ok + first->failures + first->misses +
                          first->rejections == first->submitted &&
                      first->rejections == 0 && first->misses == 0;
    const fleet::HealthSnapshot& health = first->health.health;
    point.survivors_served =
        first->owner_ok == 0 && first->reference_bytes &&
        first->health.failover_submits > 0 &&
        first->health.failover_submits == health.deflections &&
        health.quarantines >= 1 && health.probes >= 1 &&
        health.probe_failures == health.probes &&
        health.reinstatements == 0;
    std::printf("  K=%d: %llu submits, %llu ok, %llu failed, "
                "failovers=%llu, quarantines=%llu probes=%llu "
                "(deterministic %s, accounted %s, survivors %s)\n",
                devices,
                static_cast<unsigned long long>(first->submitted),
                static_cast<unsigned long long>(first->ok),
                static_cast<unsigned long long>(first->failures),
                static_cast<unsigned long long>(first->health.failover_submits),
                static_cast<unsigned long long>(health.quarantines),
                static_cast<unsigned long long>(health.probes),
                point.deterministic ? "yes" : "NO",
                point.accounted ? "yes" : "NO",
                point.survivors_served ? "yes" : "NO");
    degraded_gate = degraded_gate && point.deterministic && point.accounted &&
                    point.survivors_served;
    point.run = std::move(*first);
    degraded.push_back(std::move(point));
  }
  if (!degraded_gate) {
    std::fprintf(stderr, "FATAL: degraded serving gate failed (see above)\n");
    return 1;
  }
  std::printf("degraded gate: K-1 serving deterministic with exactly-once "
              "accounting -> PASS\n");

  if (!options.json.empty()) {
    JsonWriter json;
    json.BeginObject()
        .Key("bench").String("fleet_faults")
        .Key("recovery").BeginArray();
    for (const SweepCase& sweep : sweeps) {
      std::uint64_t device_rungs = 0;
      std::uint64_t host_rungs = 0;
      std::uint64_t reexecuted = 0;
      for (const KillOutcome& kill : sweep.kills) {
        device_rungs += kill.device_rungs;
        host_rungs += kill.host_rungs;
        reexecuted += kill.rows_reexecuted;
      }
      json.BeginObject()
          .Key("devices").Int(sweep.devices)
          .Key("strategy").String(fleet::PartitionStrategyName(sweep.strategy))
          .Key("algorithm")
          .String(kernels::DeviceAlgorithmName(sweep.algorithm))
          .Key("kills").Int(sweep.kills.size())
          .Key("device_rung_recoveries").Int(device_rungs)
          .Key("host_rung_recoveries").Int(host_rungs)
          .Key("rows_reexecuted").Int(reexecuted)
          .Key("zero_fault_identical").Bool(sweep.zero_fault_identical)
          .EndObject();
    }
    json.EndArray().Key("degraded").BeginArray();
    for (const DegradedPoint& point : degraded) {
      const fleet::HealthSnapshot& health = point.run.health.health;
      json.BeginObject()
          .Key("devices").Int(point.devices)
          .Key("submitted").Int(point.run.submitted)
          .Key("ok").Int(point.run.ok)
          .Key("failures").Int(point.run.failures)
          .Key("failover_submits").Int(point.run.health.failover_submits)
          .Key("failover_registrations")
          .Int(point.run.health.failover_registrations)
          .Key("quarantines").Int(health.quarantines)
          .Key("probes").Int(health.probes)
          .Key("probe_failures").Int(health.probe_failures)
          .Key("probe_aborts").Int(health.probe_aborts)
          .Key("deterministic").Bool(point.deterministic)
          .EndObject();
    }
    json.EndArray()
        .Key("gates").BeginObject()
        .Key("recovery").Bool(true)
        .Key("degraded").Bool(true)
        .EndObject()
        .EndObject();
    if (!WriteJsonReport(options.json, json)) return 1;
  }
  return 0;
}

// Multi-device fleet: determinism gates + scaling table (src/fleet).
//
//   ./bench/bench_fleet                  # full run
//   ./bench/bench_fleet --quick --json=BENCH_fleet.json   # CI smoke
//
// Three gates, all fatal (nonzero exit):
//   * identity: the K=1 fleet solve must be byte-identical (FNV-1a) to the
//     single-device Solver::Solve;
//   * thread invariance: for K in {1,2,4} the fleet solution must be
//     byte-identical for every host thread count;
//   * scaling: sharded serving over the bench_serve zipf workload must show
//     > 1.0x aggregate simulated throughput at K=4 vs K=1.
//
// The JSON (--json) reports per-device cycles, cross-partition comm volume,
// the host wall time and parallelism of each K's solve, and the serve
// speedup table over K.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/solver.h"
#include "fleet/fleet.h"
#include "fleet/shard.h"
#include "gen/random_lower.h"
#include "matrix/triangular.h"
#include "serve/replay.h"
#include "support/timer.h"

namespace capellini::bench {
namespace {

std::uint64_t ChecksumX(const std::vector<Val>& x) {
  return serve::HashBytes(serve::kFnvSeed, x.data(), x.size() * sizeof(Val));
}

struct FleetPoint {
  int devices = 0;
  fleet::FleetStats stats;
  std::uint64_t checksum = 0;
  bool thread_invariant = true;
  /// Host wall ms of the Solve call with a thread per device (the
  /// host_threads=8 run), and its summed device host_ms over that wall.
  double solve_wall_ms = 0.0;
  double host_parallelism = 0.0;
};

/// One fleet configuration across host thread counts: returns the stats of
/// the threads=1 run and whether every other thread count reproduced its
/// bytes AND its simulated makespan.
Expected<FleetPoint> RunFleet(const Solver& solver, std::span<const Val> b,
                              int devices) {
  FleetPoint point;
  point.devices = devices;
  for (const int host_threads : {1, 2, 8}) {
    fleet::FleetConfig config;
    config.num_devices = devices;
    config.host_threads = host_threads;
    fleet::DeviceFleet device_fleet(config);
    Timer wall;
    auto result = fleet::FleetSolver(&device_fleet).Solve(solver, b);
    point.solve_wall_ms = wall.ElapsedMs();
    if (!result.ok()) return result.status();
    if (!result->status.ok()) return result->status;
    double host_ms = 0.0;
    for (const fleet::DeviceStats& ds : result->stats.devices) {
      host_ms += ds.host_ms;
    }
    point.host_parallelism =
        point.solve_wall_ms > 0.0 ? host_ms / point.solve_wall_ms : 0.0;
    const std::uint64_t checksum = ChecksumX(result->x);
    if (host_threads == 1) {
      point.stats = std::move(result->stats);
      point.checksum = checksum;
    } else if (checksum != point.checksum ||
               result->stats.makespan_cycles == 0 ||
               result->stats.makespan_cycles != point.stats.makespan_cycles) {
      point.thread_invariant = false;
    }
  }
  return point;
}

struct ServePoint {
  int devices = 0;
  std::size_t completed = 0;
  double max_device_busy_ms = 0.0;  // simulated critical-device solve time
  double throughput_rps = 0.0;      // requests / max busy (simulated)
  double speedup = 0.0;             // vs devices=1
};

/// The bench_serve zipf workload through a ShardedSolveService: K registries
/// + K single-worker services. The scaling metric is SIMULATED aggregate
/// throughput — requests over the busiest device's summed solve time — so
/// the gate measures placement quality, not host scheduling noise.
Expected<ServePoint> RunSharded(const std::vector<NamedMatrix>& corpus,
                                const serve::RequestTrace& trace,
                                int devices) {
  fleet::ShardOptions options;
  options.num_devices = devices;
  options.service = serve::SolveService::DeterministicOptions();
  options.service.max_queue = trace.requests.size() + 1;
  fleet::ShardedSolveService sharded(options);

  std::vector<fleet::ShardedHandle> handles;
  for (const NamedMatrix& named : corpus) {
    auto handle = sharded.Register(named.matrix, named.name);
    if (!handle.ok()) return handle.status();
    handles.push_back(*handle);
  }

  struct Pending {
    int device = 0;
    std::future<serve::ServeResult> future;
  };
  std::vector<Pending> pending;
  pending.reserve(trace.requests.size());
  for (const serve::TraceRequest& request : trace.requests) {
    const fleet::ShardedHandle& handle =
        handles[static_cast<std::size_t>(request.matrix) % handles.size()];
    const Csr& matrix =
        (*sharded.registry(handle.device).Peek(handle.handle))->solver.matrix();
    auto submitted = sharded.Submit(
        handle, MakeReferenceProblem(matrix, request.seed).b);
    if (!submitted.ok()) return submitted.status();
    pending.push_back(Pending{handle.device, std::move(*submitted)});
  }

  ServePoint point;
  point.devices = devices;
  std::vector<double> busy_ms(static_cast<std::size_t>(devices), 0.0);
  for (Pending& item : pending) {
    const serve::ServeResult result = item.future.get();
    if (!result.status.ok()) return result.status;
    ++point.completed;
    busy_ms[static_cast<std::size_t>(item.device)] += result.solve.solve_ms;
  }
  sharded.Shutdown();
  point.max_device_busy_ms =
      *std::max_element(busy_ms.begin(), busy_ms.end());
  point.throughput_rps = point.max_device_busy_ms > 0.0
                             ? 1000.0 * static_cast<double>(point.completed) /
                                   point.max_device_busy_ms
                             : 0.0;
  return point;
}

int Run(int argc, char** argv) {
  bool quick = false;
  std::int64_t requests = 160;
  double zipf = 1.1;
  CliFlags extra;
  extra.AddBool("quick", &quick, "CI smoke: small matrix and trace");
  extra.AddInt("requests", &requests, "requests in the zipf serve trace");
  extra.AddDouble("zipf", &zipf, "zipf exponent for matrix popularity");
  BenchOptions options = ParseBenchFlags(argc, argv, &extra);

  // --- the solved system for the determinism gates -------------------------
  const Idx rows = quick ? 3000 : 12000;
  const Csr lower = MakeRandomLower({.rows = rows,
                                     .avg_strict_nnz_per_row = 3.0,
                                     .window = 256,
                                     .empty_row_fraction = 0.05,
                                     .seed = static_cast<std::uint64_t>(
                                         options.seed)});
  const ReferenceProblem problem = MakeReferenceProblem(lower, 11);
  const Solver solver(lower);  // paper-default simulated Pascal
  auto solo = solver.Solve(Algorithm::kCapellini, problem.b);
  if (!solo.ok()) {
    std::fprintf(stderr, "single-device solve failed: %s\n",
                 solo.status().ToString().c_str());
    return 1;
  }
  const std::uint64_t solo_checksum = ChecksumX(solo->x);
  std::printf("bench_fleet: %lld rows, %lld nnz; single-device checksum "
              "%016llx\n",
              static_cast<long long>(lower.rows()),
              static_cast<long long>(lower.nnz()),
              static_cast<unsigned long long>(solo_checksum));

  // --- identity + thread-invariance gates ----------------------------------
  std::vector<FleetPoint> points;
  for (const int devices : {1, 2, 4}) {
    auto point = RunFleet(solver, problem.b, devices);
    if (!point.ok()) {
      std::fprintf(stderr, "fleet solve (K=%d) failed: %s\n", devices,
                   point.status().ToString().c_str());
      return 1;
    }
    points.push_back(std::move(*point));
  }
  const bool identity = points[0].checksum == solo_checksum;
  std::printf("K=1 identity gate: fleet %016llx vs solver %016llx -> %s\n",
              static_cast<unsigned long long>(points[0].checksum),
              static_cast<unsigned long long>(solo_checksum),
              identity ? "MATCH" : "MISMATCH");
  bool invariant = true;
  for (const FleetPoint& point : points) {
    std::printf("K=%d: makespan %llu cycles (%.4f ms), %lld cross edges, "
                "%llu msgs, %llu bytes, thread-invariant %s; host %.1f ms "
                "wall, parallelism %.2f\n",
                point.devices,
                static_cast<unsigned long long>(point.stats.makespan_cycles),
                point.stats.exec_ms,
                static_cast<long long>(point.stats.cross_edges),
                static_cast<unsigned long long>(point.stats.total_messages),
                static_cast<unsigned long long>(point.stats.total_comm_bytes),
                point.thread_invariant ? "yes" : "NO", point.solve_wall_ms,
                point.host_parallelism);
    for (const fleet::DeviceStats& ds : point.stats.devices) {
      std::printf("    dev rows [%lld,%lld): %llu cycles, %llu in-msgs, "
                  "%llu comm-delay cycles\n",
                  static_cast<long long>(ds.row_begin),
                  static_cast<long long>(ds.row_end),
                  static_cast<unsigned long long>(ds.cycles),
                  static_cast<unsigned long long>(ds.in_messages),
                  static_cast<unsigned long long>(ds.comm_delay_cycles));
    }
    invariant = invariant && point.thread_invariant;
  }
  if (!identity || !invariant) {
    std::fprintf(stderr, "FATAL: fleet determinism gate failed (identity %s, "
                 "thread invariance %s)\n",
                 identity ? "ok" : "BROKEN", invariant ? "ok" : "BROKEN");
    return 1;
  }

  // --- sharded serving over the zipf workload ------------------------------
  CorpusOptions corpus_options = ToCorpusOptions(options);
  if (quick) {
    requests = std::min<std::int64_t>(requests, 96);
    if (corpus_options.target_rows == 0) corpus_options.target_rows = 1200;
  }
  const std::vector<NamedMatrix> corpus = HighGranularityCorpus(corpus_options);
  const serve::RequestTrace trace = serve::GenerateZipfTrace(
      static_cast<int>(requests), static_cast<int>(corpus.size()), zipf,
      static_cast<std::uint64_t>(options.seed) ^ 0x51ab);
  std::printf("\nsharded serving: %zu matrices, %zu requests (zipf %.2f)\n",
              corpus.size(), trace.requests.size(), zipf);
  std::vector<ServePoint> serve_points;
  for (const int devices : {1, 2, 4}) {
    auto point = RunSharded(corpus, trace, devices);
    if (!point.ok()) {
      std::fprintf(stderr, "sharded serve (K=%d) failed: %s\n", devices,
                   point.status().ToString().c_str());
      return 1;
    }
    point->speedup = serve_points.empty()
                         ? 1.0
                         : point->throughput_rps /
                               serve_points.front().throughput_rps;
    std::printf("  K=%d: %zu completed, busiest device %.3f ms simulated, "
                "%.1f req/s aggregate, speedup %.2fx\n",
                point->devices, point->completed, point->max_device_busy_ms,
                point->throughput_rps, point->speedup);
    serve_points.push_back(std::move(*point));
  }
  const double speedup4 = serve_points.back().speedup;
  if (speedup4 <= 1.0) {
    std::fprintf(stderr, "FATAL: K=4 sharded throughput speedup %.2fx is "
                 "not > 1.0x\n",
                 speedup4);
    return 1;
  }
  std::printf("scaling gate: K=4 speedup %.2fx > 1.0x -> PASS\n", speedup4);

  // --- JSON ---------------------------------------------------------------
  if (!options.json.empty()) {
    JsonWriter json;
    json.BeginObject()
        .Key("bench").String("fleet")
        .Key("identity").BeginObject()
        .Key("solver_checksum").Hex(solo_checksum)
        .Key("fleet_k1_checksum").Hex(points[0].checksum)
        .Key("match").Bool(true)
        .EndObject()
        .Key("fleet").BeginArray();
    for (const FleetPoint& point : points) {
      json.BeginObject()
          .Key("devices").Int(point.devices)
          .Key("makespan_cycles").Int(point.stats.makespan_cycles)
          .Key("exec_ms").Double(point.stats.exec_ms)
          .Key("cross_edges").Int(point.stats.cross_edges)
          .Key("messages").Int(point.stats.total_messages)
          .Key("comm_bytes").Int(point.stats.total_comm_bytes)
          .Key("critical_device").Int(point.stats.critical_device)
          .Key("thread_invariant").Bool(point.thread_invariant)
          .Key("solve_wall_ms").Double(point.solve_wall_ms)
          .Key("host_parallelism").Double(point.host_parallelism)
          .Key("per_device").BeginArray();
      for (std::size_t d = 0; d < point.stats.devices.size(); ++d) {
        const fleet::DeviceStats& ds = point.stats.devices[d];
        // host_ns_per_sim_cycle: interpreter wall-clock speed for THIS
        // device's launch, busy time only (host_ms is measured, never
        // deterministic; it is excluded from the identity/thread-invariance
        // checksums).
        json.BeginObject()
            .Key("device").Int(d)
            .Key("row_begin").Int(ds.row_begin)
            .Key("row_end").Int(ds.row_end)
            .Key("cycles").Int(ds.cycles)
            .Key("in_messages").Int(ds.in_messages)
            .Key("out_messages").Int(ds.out_messages)
            .Key("comm_bytes_in").Int(ds.comm_bytes_in)
            .Key("comm_delay_cycles").Int(ds.comm_delay_cycles)
            .Key("host_ms").Double(ds.host_ms)
            .Key("host_ns_per_sim_cycle")
            .Double(ds.cycles > 0
                        ? ds.host_ms * 1e6 / static_cast<double>(ds.cycles)
                        : 0.0)
            .EndObject();
      }
      json.EndArray().EndObject();
    }
    json.EndArray().Key("serve").BeginArray();
    for (const ServePoint& point : serve_points) {
      json.BeginObject()
          .Key("devices").Int(point.devices)
          .Key("completed").Int(point.completed)
          .Key("max_device_busy_ms").Double(point.max_device_busy_ms)
          .Key("throughput_rps").Double(point.throughput_rps)
          .Key("speedup").Double(point.speedup)
          .EndObject();
    }
    json.EndArray().EndObject();
    if (!WriteJsonReport(options.json, json)) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace capellini::bench

int main(int argc, char** argv) { return capellini::bench::Run(argc, argv); }

// Serving throughput: batch size x worker count sweep over a zipf trace,
// compared against the one-shot path (a fresh Solver analyzed + solved per
// request — what a caller without the registry pays).
//
//   ./bench/bench_serve                  # full sweep
//   ./bench/bench_serve --quick --json=BENCH_serve.json   # CI smoke
//
// Three gates, all fatal (nonzero exit):
//   * determinism: the service in deterministic mode (workers=1, max_batch=1)
//     must byte-reproduce the serial one-shot solutions (FNV-1a checksum);
//   * correctness: every served solution is verified against the reference;
//   * scheduling: at every overloaded offered rate, EDF + cost-based
//     admission must show a strictly lower deadline-miss rate than FIFO with
//     count-only admission (the overload sweep; --sched_json dumps it).
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/solver.h"
#include "fleet/shard.h"
#include "matrix/triangular.h"
#include "serve/replay.h"
#include "serve/service.h"
#include "support/table.h"
#include "support/timer.h"

namespace capellini::bench {
namespace {

using serve::MatrixHandle;
using serve::MatrixRegistry;
using serve::RequestTrace;
using serve::ServiceOptions;
using serve::SolveService;

struct SweepPoint {
  int max_batch = 1;
  int workers = 1;
  double requests_per_sec = 0.0;
  double speedup = 0.0;        // vs the one-shot baseline
  double mean_batch = 0.0;     // mean coalesced launch width
};

/// Serial one-shot loop: fresh Solver per request, Recommend + Solve. Returns
/// wall ms of the solve loop and the FNV-1a checksum over the solutions.
struct OneShotBaseline {
  double wall_ms = 0.0;
  double requests_per_sec = 0.0;
  std::uint64_t checksum = serve::kFnvSeed;
};

OneShotBaseline RunOneShot(const std::vector<NamedMatrix>& corpus,
                           const RequestTrace& trace,
                           const SolverOptions& solver_options) {
  // Manufacture the right-hand sides up front so the timed region is solves
  // only — the served sweep's clock also excludes problem generation.
  struct Item {
    std::size_t matrix;
    std::vector<Val> b;
  };
  std::vector<Item> items;
  items.reserve(trace.requests.size());
  for (const serve::TraceRequest& request : trace.requests) {
    const auto m = static_cast<std::size_t>(request.matrix) % corpus.size();
    items.push_back(
        Item{m, MakeReferenceProblem(corpus[m].matrix, request.seed).b});
  }

  OneShotBaseline baseline;
  Timer timer;
  for (const Item& item : items) {
    Solver solver(corpus[item.matrix].matrix, solver_options);
    auto solved = solver.Solve(solver.Recommend(), item.b);
    CAPELLINI_CHECK_MSG(solved.ok(), "one-shot solve failed");
    baseline.checksum = serve::HashBytes(baseline.checksum, solved->x.data(),
                                         solved->x.size() * sizeof(Val));
  }
  baseline.wall_ms = timer.ElapsedMs();
  if (baseline.wall_ms > 0.0) {
    baseline.requests_per_sec =
        static_cast<double>(items.size()) / (baseline.wall_ms / 1e3);
  }
  return baseline;
}

/// Builds a fresh registry + service for one sweep point and replays the
/// trace in preload mode (queue filled while paused, clock covers the drain).
Expected<SweepPoint> RunSweepPoint(const std::vector<NamedMatrix>& corpus,
                                   const RequestTrace& trace,
                                   const SolverOptions& solver_options,
                                   int max_batch, int workers,
                                   const OneShotBaseline& baseline,
                                   std::uint64_t* checksum_out = nullptr) {
  MatrixRegistry registry;
  std::vector<MatrixHandle> handles;
  for (const NamedMatrix& named : corpus) {
    auto handle = registry.Register(named.matrix, named.name, solver_options);
    if (!handle.ok()) return handle.status();
    handles.push_back(*handle);
  }

  ServiceOptions service_options;
  service_options.workers = workers;
  service_options.max_batch = max_batch;
  service_options.max_queue = trace.requests.size() + 1;
  service_options.start_paused = true;
  SolveService service(&registry, service_options);

  serve::ReplayOptions replay_options;
  replay_options.preload = true;
  auto report = serve::ReplayTrace(service, handles, trace, replay_options);
  if (!report.ok()) return report.status();
  service.Shutdown();
  if (report->failed != 0 || report->wrong != 0 || report->rejected != 0) {
    return InternalError("sweep point batch=" + std::to_string(max_batch) +
                         " workers=" + std::to_string(workers) + ": " +
                         std::to_string(report->failed) + " failed, " +
                         std::to_string(report->wrong) + " wrong, " +
                         std::to_string(report->rejected) + " rejected");
  }
  if (checksum_out != nullptr) *checksum_out = report->solution_checksum;

  SweepPoint point;
  point.max_batch = max_batch;
  point.workers = workers;
  point.requests_per_sec = report->requests_per_sec;
  point.speedup = baseline.requests_per_sec > 0.0
                      ? point.requests_per_sec / baseline.requests_per_sec
                      : 0.0;
  const serve::ServiceStats::Totals totals = service.stats().totals();
  point.mean_batch = totals.batches > 0
                         ? static_cast<double>(totals.requests) /
                               static_cast<double>(totals.batches)
                         : 0.0;
  return point;
}

/// One policy at one offered load in the overload sweep.
struct OverloadPoint {
  double load_factor = 0.0;       // offered rate / measured capacity
  serve::QueuePolicy policy = serve::QueuePolicy::kFifo;
  std::size_t submitted = 0;
  std::size_t rejected = 0;       // admission control (count or cost bound)
  std::size_t expired = 0;        // kDeadlineExceeded
  std::size_t completed = 0;
  double miss_rate = 0.0;         // expired / submitted
  double goodput_rps = 0.0;       // completed-in-deadline per second
  std::uint64_t reorders = 0;
  double cost_error = 0.0;        // mean |est - actual| / actual
};

const char* PolicyName(serve::QueuePolicy policy) {
  return policy == serve::QueuePolicy::kEdf ? "edf+cost" : "fifo";
}

/// Replays a deadline-stamped trace at a paced (open-loop) offered rate
/// through a fresh registry + service and reports the deadline outcome.
/// max_batch is pinned to 1 on both sides so the comparison isolates queue
/// ordering + admission — coalescing would let FIFO recover capacity and
/// blur the A/B.
Expected<OverloadPoint> RunOverloadPoint(
    const std::vector<NamedMatrix>& corpus, const RequestTrace& trace,
    const SolverOptions& solver_options, int workers, double offered_rps,
    double load_factor, serve::QueuePolicy policy, double max_queue_cost_ms) {
  MatrixRegistry registry;
  std::vector<MatrixHandle> handles;
  for (const NamedMatrix& named : corpus) {
    auto handle = registry.Register(named.matrix, named.name, solver_options);
    if (!handle.ok()) return handle.status();
    handles.push_back(*handle);
  }

  ServiceOptions service_options;
  service_options.workers = workers;
  service_options.max_batch = 1;
  service_options.max_queue = trace.requests.size() + 1;
  service_options.policy = policy;
  service_options.max_queue_cost_ms = max_queue_cost_ms;
  SolveService service(&registry, service_options);

  serve::ReplayOptions replay_options;
  replay_options.pace_requests_per_sec = offered_rps;
  replay_options.verify = false;  // correctness is gated by the main sweep
  auto report = serve::ReplayTrace(service, handles, trace, replay_options);
  if (!report.ok()) return report.status();
  service.Shutdown();
  if (report->failed != 0) {
    return InternalError("overload point " + std::string(PolicyName(policy)) +
                         ": " + std::to_string(report->failed) +
                         " requests failed outright");
  }

  OverloadPoint point;
  point.load_factor = load_factor;
  point.policy = policy;
  point.submitted = report->submitted;
  point.rejected = report->rejected;
  point.expired = report->expired;
  point.completed = report->completed;
  point.miss_rate = report->submitted > 0
                        ? static_cast<double>(report->expired) /
                              static_cast<double>(report->submitted)
                        : 0.0;
  point.goodput_rps = report->requests_per_sec;
  const serve::ServiceStats::Totals totals = service.stats().totals();
  point.reorders = totals.reorders;
  point.cost_error = service.stats().MeanCostErrorRatio();
  return point;
}

int Run(int argc, char** argv) {
  bool quick = false;
  std::int64_t requests = 240;
  double zipf = 1.1;
  std::string sched_json;
  std::int64_t devices = 1;
  CliFlags extra;
  extra.AddBool("quick", &quick, "CI smoke: small trace, reduced sweep");
  extra.AddInt("requests", &requests, "requests in the generated trace");
  extra.AddDouble("zipf", &zipf, "zipf exponent for matrix popularity");
  extra.AddInt("devices", &devices,
               "also run the trace through a sharded K-device fleet "
               "(src/fleet) and print per-device placement");
  extra.AddString("sched_json", &sched_json,
                  "write the overload-sweep (FIFO vs EDF+cost) results here");
  BenchOptions options = ParseBenchFlags(argc, argv, &extra);

  CorpusOptions corpus_options = ToCorpusOptions(options);
  if (quick) {
    requests = std::min<std::int64_t>(requests, 96);
    if (corpus_options.target_rows == 0) corpus_options.target_rows = 1200;
  }
  const std::vector<NamedMatrix> corpus = HighGranularityCorpus(corpus_options);
  const RequestTrace trace = serve::GenerateZipfTrace(
      static_cast<int>(requests), static_cast<int>(corpus.size()), zipf,
      static_cast<std::uint64_t>(options.seed) ^ 0x51ab);
  SolverOptions solver_options;  // paper-default simulated Pascal

  std::printf("bench_serve: %zu matrices, %zu requests (zipf %.2f)\n",
              corpus.size(), trace.requests.size(), zipf);

  // --- one-shot baseline ---------------------------------------------------
  const OneShotBaseline baseline = RunOneShot(corpus, trace, solver_options);
  std::printf("one-shot (fresh Solver per request): %.1f req/s\n",
              baseline.requests_per_sec);

  // --- determinism gate ----------------------------------------------------
  std::uint64_t serve_checksum = 0;
  {
    ServiceOptions det = SolveService::DeterministicOptions();
    auto gate = RunSweepPoint(corpus, trace, solver_options, det.max_batch,
                              det.workers, baseline, &serve_checksum);
    if (!gate.ok()) {
      std::fprintf(stderr, "determinism replay failed: %s\n",
                   gate.status().ToString().c_str());
      return 1;
    }
  }
  const bool deterministic = serve_checksum == baseline.checksum;
  std::printf("determinism gate: one-shot %016llx vs served %016llx -> %s\n",
              static_cast<unsigned long long>(baseline.checksum),
              static_cast<unsigned long long>(serve_checksum),
              deterministic ? "MATCH" : "MISMATCH");
  if (!deterministic) {
    std::fprintf(stderr,
                 "FATAL: deterministic mode did not byte-reproduce the "
                 "one-shot solutions\n");
    return 1;
  }

  // --- batch x workers sweep -----------------------------------------------
  const std::vector<int> batches = quick ? std::vector<int>{1, 4}
                                         : std::vector<int>{1, 2, 4, 6};
  const std::vector<int> workers = quick ? std::vector<int>{1, 2}
                                         : std::vector<int>{1, 2, 4};
  std::vector<SweepPoint> points;
  for (int batch : batches) {
    for (int nworkers : workers) {
      auto point = RunSweepPoint(corpus, trace, solver_options, batch,
                                 nworkers, baseline);
      if (!point.ok()) {
        std::fprintf(stderr, "%s\n", point.status().ToString().c_str());
        return 1;
      }
      if (options.progress) {
        std::fprintf(stderr, "  batch=%d workers=%d -> %.1f req/s\n", batch,
                     nworkers, point->requests_per_sec);
      }
      points.push_back(*point);
    }
  }

  TextTable table({"max_batch", "workers", "req/s", "vs one-shot",
                   "mean launch width"});
  table.SetTitle("served throughput (preloaded zipf trace, drain only)");
  for (const SweepPoint& point : points) {
    table.AddRow({std::to_string(point.max_batch),
                  std::to_string(point.workers),
                  TextTable::Num(point.requests_per_sec, 1),
                  TextTable::Num(point.speedup, 2) + "x",
                  TextTable::Num(point.mean_batch, 2)});
  }
  std::printf("\n%s", table.ToString().c_str());

  double best_batched = 0.0;
  for (const SweepPoint& point : points) {
    if (point.max_batch >= 4) best_batched = std::max(best_batched, point.speedup);
  }
  std::printf("\nbest batched (max_batch >= 4) speedup vs one-shot: %.2fx\n",
              best_batched);

  // --- multi-device axis: the same trace through a sharded fleet -----------
  if (devices > 1) {
    fleet::ShardOptions shard_options;
    shard_options.num_devices = static_cast<int>(devices);
    shard_options.service = SolveService::DeterministicOptions();
    shard_options.service.max_queue = trace.requests.size() + 1;
    fleet::ShardedSolveService sharded(shard_options);
    std::vector<fleet::ShardedHandle> sharded_handles;
    for (const NamedMatrix& named : corpus) {
      auto handle = sharded.Register(named.matrix, named.name, solver_options);
      CAPELLINI_CHECK_MSG(handle.ok(), "sharded registration failed");
      sharded_handles.push_back(*handle);
    }
    std::vector<std::pair<int, std::future<serve::ServeResult>>> inflight;
    for (const serve::TraceRequest& request : trace.requests) {
      const fleet::ShardedHandle& handle = sharded_handles[
          static_cast<std::size_t>(request.matrix) % sharded_handles.size()];
      const Csr& matrix = (*sharded.registry(handle.device)
                                .Peek(handle.handle))->solver.matrix();
      auto submitted = sharded.Submit(
          handle, MakeReferenceProblem(matrix, request.seed).b);
      CAPELLINI_CHECK_MSG(submitted.ok(), "sharded submit failed");
      inflight.emplace_back(handle.device, std::move(*submitted));
    }
    std::vector<std::size_t> served(static_cast<std::size_t>(devices), 0);
    std::vector<double> busy_ms(static_cast<std::size_t>(devices), 0.0);
    for (auto& [device, future] : inflight) {
      const serve::ServeResult result = future.get();
      CAPELLINI_CHECK_MSG(result.status.ok(), "sharded solve failed");
      ++served[static_cast<std::size_t>(device)];
      busy_ms[static_cast<std::size_t>(device)] += result.solve.solve_ms;
    }
    sharded.Shutdown();
    TextTable shard_table({"device", "matrices placed cost ms", "requests",
                           "busy ms (simulated)"});
    shard_table.SetTitle("sharded fleet (--devices=" +
                         std::to_string(devices) + ", cost-aware placement)");
    double max_busy = 0.0;
    for (int d = 0; d < static_cast<int>(devices); ++d) {
      shard_table.AddRow({std::to_string(d),
                          TextTable::Num(sharded.PlacedCostMs(d), 3),
                          std::to_string(served[static_cast<std::size_t>(d)]),
                          TextTable::Num(busy_ms[static_cast<std::size_t>(d)],
                                         3)});
      max_busy = std::max(max_busy, busy_ms[static_cast<std::size_t>(d)]);
    }
    std::printf("\n%s", shard_table.ToString().c_str());
    std::printf("aggregate simulated throughput: %.1f req/s (busiest device "
                "%.3f ms)\n",
                max_busy > 0.0 ? 1000.0 *
                                     static_cast<double>(
                                         trace.requests.size()) /
                                     max_busy
                               : 0.0,
                max_busy);
  }

  // --- overload sweep: FIFO vs EDF + cost admission ------------------------
  // Capacity is calibrated with the same workers / max_batch=1 configuration
  // the overload points run, so "load factor 2" genuinely offers twice what
  // the service can drain.
  const int overload_workers = 2;
  double capacity_rps = 0.0;
  double mean_service_ms = 0.0;   // host wall clock per request (deadlines)
  double model_mean_cost_ms = 0.0;  // cost-model units (admission budget)
  {
    MatrixRegistry registry;
    std::vector<MatrixHandle> handles;
    for (const NamedMatrix& named : corpus) {
      auto handle = registry.Register(named.matrix, named.name, solver_options);
      CAPELLINI_CHECK_MSG(handle.ok(), "calibration registration failed");
      handles.push_back(*handle);
    }
    ServiceOptions calib;
    calib.workers = overload_workers;
    calib.max_batch = 1;
    calib.max_queue = trace.requests.size() + 1;
    calib.start_paused = true;
    SolveService service(&registry, calib);
    serve::ReplayOptions replay_options;
    replay_options.preload = true;
    replay_options.verify = false;
    auto calibration =
        serve::ReplayTrace(service, handles, trace, replay_options);
    if (!calibration.ok() || calibration->requests_per_sec <= 0.0) {
      std::fprintf(stderr, "overload calibration failed\n");
      return 1;
    }
    service.Shutdown();
    capacity_rps = calibration->requests_per_sec;
    mean_service_ms =
        static_cast<double>(overload_workers) * 1e3 / capacity_rps;
    // The admission ledger lives in cost-model units (the simulator's kernel
    // ms, NOT the host wall clock that sets capacity). Read the calibrated
    // per-handle estimates back out of the drained registry and weight them
    // by the trace so the budget prices the queue the model will see.
    double model_cost_sum = 0.0;
    for (const serve::TraceRequest& request : trace.requests) {
      const auto m = static_cast<std::size_t>(request.matrix) % handles.size();
      auto entry = registry.Acquire(handles[m]);
      CAPELLINI_CHECK_MSG(entry.ok(), "calibration handle disappeared");
      model_cost_sum += (*entry)->cost.EstimateMs();
    }
    model_mean_cost_ms =
        model_cost_sum / static_cast<double>(trace.requests.size());
  }
  std::printf(
      "\noverload calibration: capacity %.1f req/s "
      "(mean service %.2f ms host, %.4f ms model, %d workers)\n",
      capacity_rps, mean_service_ms, model_mean_cost_ms, overload_workers);

  // Deadlines span a few to a couple dozen service times: tight enough that
  // an unbounded FIFO backlog blows through them, loose enough that a
  // cost-bounded queue can honor most. The cost budget caps queued work at
  // ~6 mean model-cost requests, so admitted requests wait a bounded time.
  RequestTrace deadline_trace = trace;
  serve::AssignDeadlines(deadline_trace, 4.0 * mean_service_ms,
                         24.0 * mean_service_ms,
                         static_cast<std::uint64_t>(options.seed) ^ 0xdead);
  const double cost_budget_ms = 6.0 * model_mean_cost_ms;
  const std::vector<double> load_factors =
      quick ? std::vector<double>{2.0, 4.0} : std::vector<double>{1.5, 3.0, 6.0};

  std::vector<OverloadPoint> overload_points;
  bool sched_gate_pass = true;
  for (double load : load_factors) {
    const double offered = load * capacity_rps;
    auto fifo = RunOverloadPoint(corpus, deadline_trace, solver_options,
                                 overload_workers, offered, load,
                                 serve::QueuePolicy::kFifo,
                                 /*max_queue_cost_ms=*/0.0);
    auto edf = RunOverloadPoint(corpus, deadline_trace, solver_options,
                                overload_workers, offered, load,
                                serve::QueuePolicy::kEdf, cost_budget_ms);
    if (!fifo.ok() || !edf.ok()) {
      std::fprintf(stderr, "overload point at load %.1f failed: %s\n", load,
                   (!fifo.ok() ? fifo.status() : edf.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    if (options.progress) {
      std::fprintf(stderr, "  load %.1fx: fifo miss %.1f%%, edf miss %.1f%%\n",
                   load, 100.0 * fifo->miss_rate, 100.0 * edf->miss_rate);
    }
    // The gate: at equal offered load, EDF + cost admission must miss
    // strictly less often than FIFO. FIFO missing nothing means the load
    // point is not actually overloaded — also a failure (the sweep would be
    // vacuous).
    if (fifo->expired == 0 || edf->miss_rate >= fifo->miss_rate) {
      sched_gate_pass = false;
    }
    overload_points.push_back(*fifo);
    overload_points.push_back(*edf);
  }

  TextTable sched_table({"load", "policy", "submitted", "rejected", "expired",
                         "completed", "miss rate", "goodput req/s"});
  sched_table.SetTitle("overload sweep (paced open-loop arrivals)");
  for (const OverloadPoint& p : overload_points) {
    sched_table.AddRow({TextTable::Num(p.load_factor, 1) + "x",
                        PolicyName(p.policy), std::to_string(p.submitted),
                        std::to_string(p.rejected), std::to_string(p.expired),
                        std::to_string(p.completed),
                        TextTable::Num(100.0 * p.miss_rate, 1) + "%",
                        TextTable::Num(p.goodput_rps, 1)});
  }
  std::printf("\n%s", sched_table.ToString().c_str());
  std::printf("\nscheduling gate (EDF+cost misses < FIFO misses at every "
              "load): %s\n",
              sched_gate_pass ? "PASS" : "FAIL");

  if (!sched_json.empty()) {
    JsonWriter json;
    json.BeginObject()
        .Key("bench").String("serve_sched")
        .Key("requests").Int(trace.requests.size())
        .Key("capacity_requests_per_sec").Double(capacity_rps)
        .Key("mean_service_ms").Double(mean_service_ms)
        .Key("cost_budget_ms").Double(cost_budget_ms)
        .Key("gate_pass").Bool(sched_gate_pass)
        .Key("points").BeginArray();
    for (const OverloadPoint& p : overload_points) {
      json.BeginObject()
          .Key("load_factor").Double(p.load_factor)
          .Key("policy").String(PolicyName(p.policy))
          .Key("submitted").Int(p.submitted)
          .Key("rejected").Int(p.rejected)
          .Key("expired").Int(p.expired)
          .Key("completed").Int(p.completed)
          .Key("miss_rate").Double(p.miss_rate)
          .Key("goodput_requests_per_sec").Double(p.goodput_rps)
          .Key("reorders").Int(p.reorders)
          .Key("cost_error_ratio").Double(p.cost_error)
          .EndObject();
    }
    json.EndArray().EndObject();
    if (!WriteJsonReport(sched_json, json)) return 1;
  }
  if (!sched_gate_pass) {
    std::fprintf(stderr,
                 "FATAL: EDF + cost admission did not beat FIFO's deadline-"
                 "miss rate at every overloaded offered load\n");
    return 1;
  }

  if (!options.json.empty()) {
    JsonWriter json;
    json.BeginObject()
        .Key("bench").String("serve")
        .Key("requests").Int(trace.requests.size())
        .Key("matrices").Int(corpus.size())
        .Key("one_shot_requests_per_sec").Double(baseline.requests_per_sec)
        .Key("determinism").BeginObject()
        .Key("one_shot_checksum").Hex(baseline.checksum)
        .Key("served_checksum").Hex(serve_checksum)
        .Key("match").Bool(deterministic)
        .EndObject()
        .Key("best_batched_speedup").Double(best_batched)
        .Key("sweep").BeginArray();
    for (const SweepPoint& p : points) {
      json.BeginObject()
          .Key("max_batch").Int(p.max_batch)
          .Key("workers").Int(p.workers)
          .Key("requests_per_sec").Double(p.requests_per_sec)
          .Key("speedup").Double(p.speedup)
          .Key("mean_launch_width").Double(p.mean_batch)
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

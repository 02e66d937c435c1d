// A command-line SpTRSV utility on Matrix Market files — the workflow a
// SuiteSparse user would run:
//
//   1. read an .mtx file (any square matrix),
//   2. apply the paper's dataset rule (keep the lower-left, unit diagonal),
//   3. print the structural indicators (alpha, beta, delta) and the
//      recommended algorithm,
//   4. solve against a manufactured right-hand side on a simulated GPU and
//      verify.
//
// With --generate it synthesizes an input first, so it runs out of the box:
//
//   ./examples/sptrsv_tool --generate
//   ./examples/sptrsv_tool --input=matrix.mtx --algorithm=Capellini
//
// Tracing (device algorithms only):
//
//   ./examples/sptrsv_tool --generate --trace=trace.json --trace_summary
//
// writes a Chrome trace-event file (load it at ui.perfetto.dev) and prints
// the stall-attribution table and solve-progress ramp.
//
// Serving (src/serve):
//
//   ./examples/sptrsv_tool --serve_replay=trace.json
//
// replays a request trace through the batching solve service over a generated
// corpus (the trace is generated and written to the path first if the file
// does not exist); --list-algorithms prints every algorithm the tool accepts.
// Streaming factors (src/update):
//
//   ./examples/sptrsv_tool --update_trace=mixed.json
//
// replays a MIXED solve/update trace: update events apply DeltaBatches to the
// registered factors mid-replay (epoch-swapped snapshots; in-flight solves
// finish on the pre-update matrix). A missing file gets a generated zipf
// trace with interleaved updates written to it first.
// Reliability (src/core/verify.h + src/sim/fault.h):
//
//   ./examples/sptrsv_tool --generate --check
//   ./examples/sptrsv_tool --generate --faults=plan.json --check
//   ./examples/sptrsv_tool --generate --faults=plan.json --reliable
//
// --check verifies the solution (NaN/Inf guard + relative residual) and
// prints the verdict; --faults replays a deterministic fault plan against
// the simulated device (same seed => same faults => same outcome); --reliable
// solves through the self-healing retry ladder and prints every attempt.
// Multi-device fleet (src/fleet):
//
//   ./examples/sptrsv_tool --generate --devices=4
//
// partitions the factor across 4 simulated GPUs (level-aware cuts), charges
// a comm model for every cross-partition dependency and prints per-device
// cycles + boundary traffic; composes with --faults (the same plan is
// replayed on every device, so row-scoped plans kill exactly the partition
// that owns the rows). Fleet reliability (DESIGN.md §4j):
//
//   ./examples/sptrsv_tool --generate --devices=4 --faults=plan.json --reliable
//
// enables the fleet recovery ladder: a killed partition is re-executed on a
// surviving device (or the host serial rung), every recovered range is
// verified, and a per-device recovery-counters table reports who failed
// over where.
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "core/analysis.h"
#include "fleet/fleet.h"
#include "core/autotune.h"
#include "core/solver.h"
#include "core/verify.h"
#include "graph/levels.h"
#include "sim/fault.h"
#include "gen/corpus.h"
#include "gen/rmat.h"
#include "matrix/convert.h"
#include "matrix/mm_io.h"
#include "matrix/triangular.h"
#include "serve/persist.h"
#include "serve/replay.h"
#include "serve/service.h"
#include "support/cli.h"
#include "support/timer.h"
#include "trace/session.h"

namespace {

/// --list-algorithms: one line per algorithm the --algorithm flag accepts.
int ListAlgorithms() {
  using namespace capellini;
  std::printf("%-16s %-6s %-9s\n", "name", "runs", "batchable");
  for (const Algorithm algorithm :
       {Algorithm::kCapellini, Algorithm::kCapelliniTwoPhase,
        Algorithm::kSyncFree, Algorithm::kSyncFreeCsr, Algorithm::kCusparse,
        Algorithm::kLevelSet, Algorithm::kHybrid, Algorithm::kSerialCpu,
        Algorithm::kLevelSetCpu, Algorithm::kSyncFreeCpu}) {
    // "batchable" = has a k-rhs kernel, so the solve service can coalesce
    // same-matrix requests into one launch.
    const bool batchable = algorithm == Algorithm::kCapellini ||
                           algorithm == Algorithm::kSyncFreeCsr;
    std::printf("%-16s %-6s %-9s\n", AlgorithmName(algorithm),
                IsDeviceAlgorithm(algorithm) ? "device" : "host",
                batchable ? "yes" : "no");
  }
  std::printf("\n'auto' picks Capellini when parallel granularity > 0.7, "
              "SyncFree otherwise (Figure 6).\n");
  return 0;
}

/// --serve_replay / --update_trace: replay `path` (generated and written
/// first only if no such file exists) through a MatrixRegistry +
/// SolveService over a small generated corpus. `with_updates` makes a
/// generated trace carry interleaved update events (streaming factors); a
/// read trace replays whatever mix it holds either way.
int ServeReplay(const std::string& path, const capellini::SolverOptions& options,
                bool with_updates, const std::string& analysis_cache_dir) {
  using namespace capellini;
  using namespace capellini::serve;

  CorpusOptions corpus_options;
  corpus_options.target_rows = 1200;
  const std::vector<NamedMatrix> corpus = HighGranularityCorpus(corpus_options);

  RequestTrace trace;
  auto read = ReadTraceJson(path);
  if (read.ok()) {
    trace = std::move(*read);
    std::printf("replaying %zu requests from %s\n", trace.requests.size(),
                path.c_str());
  } else if (read.status().code() != StatusCode::kNotFound) {
    // An existing file is the user's: report it, never overwrite it.
    std::fprintf(stderr, "cannot replay: %s\n",
                 read.status().ToString().c_str());
    return 1;
  } else {
    trace = GenerateZipfTrace(96, static_cast<int>(corpus.size()), 1.1, 0x51ab);
    if (with_updates) {
      InterleaveUpdates(trace, /*update_fraction=*/0.25,
                        /*deltas_per_update=*/6, /*structural_fraction=*/0.5,
                        0x51ab);
    }
    if (const Status status = WriteTraceJson(trace, path); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("no trace at %s — generated a zipf trace "
                "(%zu events%s) and wrote it there\n",
                path.c_str(), trace.requests.size(),
                with_updates ? ", updates interleaved" : "");
  }

  RegistryOptions registry_options;
  registry_options.analysis_cache_dir = analysis_cache_dir;
  MatrixRegistry registry(registry_options);
  Timer register_timer;
  std::vector<MatrixHandle> handles;
  for (const NamedMatrix& named : corpus) {
    auto handle = registry.Register(named.matrix, named.name, options);
    if (!handle.ok()) {
      std::fprintf(stderr, "register '%s' failed: %s\n", named.name.c_str(),
                   handle.status().ToString().c_str());
      return 1;
    }
    handles.push_back(*handle);
  }
  if (!analysis_cache_dir.empty()) {
    const RegistrySnapshot snap = registry.Snapshot();
    std::printf("analysis cache (%s): %llu warm, %llu cold; %zu "
                "registrations in %.2f ms\n",
                analysis_cache_dir.c_str(),
                static_cast<unsigned long long>(snap.analysis_cache_hits),
                static_cast<unsigned long long>(snap.analysis_cache_misses),
                handles.size(), register_timer.ElapsedMs());
  }

  ServiceOptions service_options;
  service_options.workers = 2;
  service_options.max_batch = 4;
  service_options.max_queue = trace.requests.size() + 1;
  service_options.start_paused = true;
  SolveService service(&registry, service_options);

  ReplayOptions replay_options;
  replay_options.preload = true;
  auto report = ReplayTrace(service, handles, trace, replay_options);
  if (!report.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  service.Shutdown();

  std::printf("%zu completed, %zu rejected, %zu failed, %zu wrong; "
              "%.1f req/s (checksum %016llx)\n",
              report->completed, report->rejected, report->failed,
              report->wrong, report->requests_per_sec,
              static_cast<unsigned long long>(report->solution_checksum));
  if (report->updates != 0 || report->updates_rejected != 0) {
    std::printf("%zu updates applied (%llu rows re-leveled), "
                "%zu update rejections\n",
                report->updates,
                static_cast<unsigned long long>(report->rows_releveled),
                report->updates_rejected);
  }
  std::printf("\n");
  const RegistrySnapshot cache = registry.Snapshot();
  std::fputs(service.stats().ToTable(&cache).c_str(), stdout);
  return (report->wrong == 0 && report->failed == 0) ? 0 : 1;
}

/// Every pairwise flag-compatibility rule, in one place, checked after the
/// algorithm is resolved and before any work runs. Each rejection says which
/// flag to drop. (The trace/threads rule used to live inline in main; new
/// axes like --devices land here instead of growing more ad-hoc blocks.)
capellini::Status ValidateToolFlags(std::int64_t devices, std::int64_t threads,
                                    bool want_trace, bool tune, bool reliable,
                                    capellini::Algorithm algorithm,
                                    bool serve_replay, bool update_trace) {
  using namespace capellini;
  if (devices < 1) return InvalidArgument("--devices must be >= 1");
  if (threads < 0) return InvalidArgument("--threads must be >= 0");
  if (serve_replay && update_trace) {
    return InvalidArgument(
        "--serve_replay and --update_trace are both service replay modes; "
        "pick one (--update_trace replays mixed solve/update traces)");
  }
  if (update_trace) {
    if (want_trace) {
      return InvalidArgument(
          "--update_trace replays through the solve service, which has no "
          "per-solve trace sink; drop --trace/--trace_summary/--trace_csv");
    }
    if (devices > 1) {
      return InvalidArgument(
          "--update_trace drives the single-device solve service; drop "
          "--devices");
    }
    if (tune) {
      return InvalidArgument(
          "--tune sweeps the hybrid kernel outside the service; drop "
          "--update_trace or --tune");
    }
    if (reliable) {
      return InvalidArgument(
          "--reliable (the retry ladder) is a one-shot solve path; drop "
          "--update_trace or --reliable");
    }
  }
  if (want_trace && threads > 1) {
    return InvalidArgument(
        "--threads=" + std::to_string(threads) +
        " is incompatible with tracing — a trace sink observes one machine "
        "at a time. Drop --trace/--trace_summary/--trace_csv or use "
        "--threads=1.");
  }
  if (want_trace && !IsDeviceAlgorithm(algorithm)) {
    return InvalidArgument(
        std::string("--trace/--trace_summary need a simulated-device "
                    "algorithm, but '") +
        AlgorithmName(algorithm) +
        "' runs on the host CPU and has no device execution to trace (pick "
        "e.g. --algorithm=Capellini)");
  }
  if (devices > 1) {
    if (want_trace) {
      return InvalidArgument(
          "--trace/--trace_summary/--trace_csv observe ONE machine; drop "
          "--devices or trace a single-device run (per-device sinks are "
          "available programmatically via DeviceFleet::set_trace_sink)");
    }
    if (tune) {
      return InvalidArgument(
          "--tune sweeps the single-device hybrid kernel; drop --devices");
    }
    if (algorithm != Algorithm::kCapellini &&
        algorithm != Algorithm::kCapelliniTwoPhase) {
      return InvalidArgument(
          std::string("--devices needs a Capellini thread-per-row algorithm "
                      "(Capellini or Capellini2P), got '") +
          AlgorithmName(algorithm) + "'");
    }
  }
  return Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace capellini;

  std::string input;
  std::string algorithm_name = "auto";
  std::string platform = "Pascal";
  std::string trace_path;
  std::string trace_csv_path;
  bool generate = false;
  bool tune = false;
  bool trace_summary = false;
  bool list_algorithms = false;
  std::string serve_replay_path;
  std::string update_trace_path;
  std::string faults_path;
  std::string analysis_cache_dir;
  bool check = false;
  bool reliable = false;
  std::int64_t generate_nodes = 1 << 14;
  std::int64_t threads = 0;
  std::int64_t devices = 1;

  CliFlags flags;
  flags.AddString("input", &input, "Matrix Market file to solve");
  flags.AddBool("generate", &generate,
                "generate an RMAT input instead of reading a file");
  flags.AddInt("generate_nodes", &generate_nodes, "size of generated input");
  flags.AddString("algorithm", &algorithm_name,
                  "auto|Capellini|SyncFree|cuSPARSE|Level-Set|Hybrid");
  flags.AddString("platform", &platform, "Pascal|Volta|Turing");
  flags.AddBool("tune", &tune,
                "also autotune the hybrid warp/thread threshold (§4.4)");
  flags.AddString("trace", &trace_path,
                  "write a Chrome trace-event JSON of the solve (open at "
                  "ui.perfetto.dev); device algorithms only");
  flags.AddBool("trace_summary", &trace_summary,
                "print the stall-attribution table and solve-progress ramp; "
                "device algorithms only");
  flags.AddString("trace_csv", &trace_csv_path,
                  "write the per-warp stall-attribution CSV");
  flags.AddInt("threads", &threads,
               "worker threads for --tune (0 = hardware concurrency); "
               "incompatible with tracing");
  flags.AddInt("devices", &devices,
               "solve across this many simulated GPUs (src/fleet; Capellini "
               "algorithms only, composes with --faults/--check)");
  flags.AddBool("list_algorithms", &list_algorithms,
                "print every accepted --algorithm value and exit");
  flags.AddString("serve_replay", &serve_replay_path,
                  "replay this request-trace JSON through the batching solve "
                  "service (generates + writes the trace if the file is "
                  "missing)");
  flags.AddString("update_trace", &update_trace_path,
                  "replay this MIXED solve/update trace JSON through the "
                  "solve service — update events stream DeltaBatches into "
                  "the registered factors (generates + writes a trace with "
                  "interleaved updates if the file is missing)");
  flags.AddString("analysis_cache", &analysis_cache_dir,
                  "persist/rehydrate analyzed level sets in this directory "
                  "(serve/persist.h): the first run on a factor is cold "
                  "(analyze + store), repeats are warm (zero host level "
                  "sweeps); also engages the registry cache in the replay "
                  "modes");
  flags.AddString("faults", &faults_path,
                  "inject deterministic faults from this plan JSON (see "
                  "sim/fault.h; generates + writes a sample plan if the file "
                  "is missing)");
  flags.AddBool("check", &check,
                "verify the solution (NaN/Inf guard + relative residual) and "
                "print the verdict");
  flags.AddBool("reliable", &reliable,
                "solve through the self-healing retry ladder (implies "
                "--check) and print every attempt; with --devices=K, "
                "enable the fleet recovery ladder instead");
  if (const Status status = flags.Parse(argc, argv); !status.ok()) {
    return status.code() == StatusCode::kNotFound ? 0 : 2;
  }
  if (list_algorithms) return ListAlgorithms();
  if (!serve_replay_path.empty() || !update_trace_path.empty()) {
    // Replay modes bypass the algorithm resolution below (the service picks
    // per-matrix), but every pairwise flag rule still runs — with a
    // placeholder algorithm, since none was resolved.
    const bool early_want_trace =
        !trace_path.empty() || !trace_csv_path.empty() || trace_summary;
    if (const Status status = ValidateToolFlags(
            devices, threads, early_want_trace, tune, reliable,
            Algorithm::kCapellini, !serve_replay_path.empty(),
            !update_trace_path.empty());
        !status.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   std::string(status.message()).c_str());
      return 2;
    }
    SolverOptions serve_options;
    for (const auto& device : sim::PaperPlatforms()) {
      if (device.name == platform) serve_options.device = device;
    }
    const bool with_updates = !update_trace_path.empty();
    return ServeReplay(with_updates ? update_trace_path : serve_replay_path,
                       serve_options, with_updates, analysis_cache_dir);
  }

  // --- load or generate ------------------------------------------------
  Csr general;
  if (generate || input.empty()) {
    std::printf("generating an RMAT graph factor (%lld nodes)...\n",
                static_cast<long long>(generate_nodes));
    general = MakeRmatLower({.nodes = static_cast<Idx>(generate_nodes),
                             .edges_per_node = 3.0,
                             .a = 0.57,
                             .b = 0.19,
                             .c = 0.19,
                             .seed = 99});
  } else {
    auto coo = ReadMatrixMarketFile(input);
    if (!coo.ok()) {
      std::fprintf(stderr, "cannot read '%s': %s\n", input.c_str(),
                   coo.status().ToString().c_str());
      return 1;
    }
    if (coo->rows() != coo->cols()) {
      std::fprintf(stderr, "matrix must be square\n");
      return 1;
    }
    general = CooToCsr(std::move(*coo));
  }

  // --- the paper's dataset rule ------------------------------------------
  const Csr lower = ExtractLowerTriangular(general, {});
  const std::string matrix_name = input.empty() ? "generated" : input;
  Analysis analysis;
  if (analysis_cache_dir.empty()) {
    analysis = Analyze(lower, matrix_name);
  } else {
    // Preprocessing as an avoidable cost: rehydrate from the cache when the
    // stored level sets still match the factor's structure, otherwise pay
    // the cold analysis once and persist it for the next run.
    const serve::AnalysisCache cache(analysis_cache_dir);
    Timer analysis_timer;
    auto persisted = cache.Load(matrix_name, lower);
    if (persisted.ok()) {
      analysis = AssembleAnalysis(
          lower, matrix_name,
          BuildLevelSetsFromLevelOf(std::move(persisted->level_of)));
      std::printf("analysis cache: warm — rehydrated in %.2f ms (zero host "
                  "level sweeps)\n",
                  analysis_timer.ElapsedMs());
    } else {
      analysis = Analyze(lower, matrix_name);
      const double cold_ms = analysis_timer.ElapsedMs();
      if (const Status status = cache.Store(matrix_name, lower,
                                            analysis.levels, cold_ms);
          !status.ok()) {
        std::fprintf(stderr, "cannot store analysis: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      std::printf("analysis cache: cold (%s) — analyzed in %.2f ms and "
                  "stored to %s\n",
                  StatusCodeName(persisted.status().code()), cold_ms,
                  cache.PathFor(matrix_name).c_str());
    }
  }
  std::fputs(FormatAnalysis(analysis).c_str(), stdout);

  // --- pick algorithm and platform ----------------------------------------
  Algorithm algorithm = analysis.recommended;
  if (algorithm_name != "auto") {
    bool found = false;
    for (const Algorithm candidate :
         {Algorithm::kCapellini, Algorithm::kCapelliniTwoPhase,
          Algorithm::kSyncFree, Algorithm::kSyncFreeCsr, Algorithm::kCusparse,
          Algorithm::kLevelSet, Algorithm::kHybrid, Algorithm::kSerialCpu,
          Algorithm::kLevelSetCpu, Algorithm::kSyncFreeCpu}) {
      if (algorithm_name == AlgorithmName(candidate)) {
        algorithm = candidate;
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown algorithm '%s'\n", algorithm_name.c_str());
      return 2;
    }
  }
  // The fleet only runs the Capellini thread-per-row kernels; with 'auto'
  // don't bounce the user off a SyncFree recommendation, just pick Capellini.
  // An EXPLICIT incompatible --algorithm still errors in ValidateToolFlags.
  if (devices > 1 && algorithm_name == "auto") algorithm = Algorithm::kCapellini;
  SolverOptions options;
  for (const auto& device : sim::PaperPlatforms()) {
    if (device.name == platform) options.device = device;
  }

  // --- flag compatibility (one place, every rule) --------------------------
  const bool want_trace =
      !trace_path.empty() || !trace_csv_path.empty() || trace_summary;
  if (const Status status =
          ValidateToolFlags(devices, threads, want_trace, tune, reliable,
                            algorithm, /*serve_replay=*/false,
                            /*update_trace=*/false);
      !status.ok()) {
    std::fprintf(stderr, "error: %s\n", std::string(status.message()).c_str());
    return 2;
  }
  // --- fault injection -----------------------------------------------------
  sim::FaultPlan fault_plan;
  bool have_fault_plan = false;
  sim::FaultInjector injector;  // must outlive the Solver's launches
  if (!faults_path.empty()) {
    auto read_plan = sim::ReadFaultPlanJson(faults_path);
    if (read_plan.ok()) {
      fault_plan = *read_plan;
    } else if (read_plan.status().code() != StatusCode::kNotFound) {
      std::fprintf(stderr, "cannot use fault plan: %s\n",
                   read_plan.status().ToString().c_str());
      return 1;
    } else {
      // A runnable starting point: ~2 expected dropped publishes per solve.
      fault_plan.seed = 7;
      fault_plan.drop_publish_rate = 2.0 / static_cast<double>(lower.rows());
      if (const Status status =
              sim::WriteFaultPlanJson(fault_plan, faults_path);
          !status.ok()) {
        std::fprintf(stderr, "cannot write fault plan: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      std::printf("no fault plan at %s — wrote a sample plan there\n",
                  faults_path.c_str());
    }
    have_fault_plan = true;
    injector.Reseed(fault_plan);
    if (devices == 1) options.kernel_options.fault_injector = &injector;
    std::printf("injecting faults: %s\n",
                sim::FaultPlanSummary(fault_plan).c_str());
  }

  std::optional<trace::TraceSession> trace_session;
  if (want_trace) {
    trace::TraceSession::Options trace_options;
    if (algorithm == Algorithm::kLevelSet || algorithm == Algorithm::kSyncFree) {
      // These kernels publish through the f64 x vector, not get_value flags.
      trace_options.publish_param_index = 5;
      trace_options.publish_elem_size = 8;
    }
    trace_session.emplace(trace_options);
    options.kernel_options.trace_sink = trace_session->sink();
  }

  // --- solve and verify ----------------------------------------------------
  const ReferenceProblem problem = MakeReferenceProblem(lower, 11);
  const Solver solver(lower, options);

  // --- multi-device fleet path ---------------------------------------------
  if (devices > 1) {
    fleet::FleetConfig fleet_config;
    fleet_config.num_devices = static_cast<int>(devices);
    fleet_config.device = options.device;
    fleet_config.algorithm = algorithm == Algorithm::kCapelliniTwoPhase
                                 ? kernels::DeviceAlgorithm::kCapelliniTwoPhase
                                 : kernels::DeviceAlgorithm::kCapelliniWritingFirst;
    if (threads > 0) fleet_config.host_threads = static_cast<int>(threads);
    // --reliable on the fleet path = the §4j recovery ladder: failed
    // partitions re-execute on a survivor (or the host rung) with every
    // accepted range and the stitched solution verified.
    fleet_config.recovery.enabled = reliable;
    fleet::DeviceFleet device_fleet(fleet_config);
    // Every device replays the SAME plan: plans scoped by rows/warps (global
    // coordinates) then hit exactly the device that owns those rows.
    std::vector<std::unique_ptr<sim::FaultInjector>> injectors;
    if (have_fault_plan) {
      for (int d = 0; d < fleet_config.num_devices; ++d) {
        injectors.push_back(std::make_unique<sim::FaultInjector>());
        injectors.back()->Reseed(fault_plan);
        device_fleet.set_fault_injector(d, injectors.back().get());
      }
    }
    const fleet::FleetSolver fleet_solver(&device_fleet);
    auto result = fleet_solver.Solve(solver, problem.b);
    if (!result.ok()) {
      std::fprintf(stderr, "fleet solve failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("\nfleet solve: %lld devices, %s cuts, %s on %s\n",
                static_cast<long long>(devices),
                fleet::PartitionStrategyName(fleet_config.strategy),
                AlgorithmName(algorithm), options.device.name.c_str());
    std::printf("  %-3s %-14s %10s %12s %7s %7s %10s\n", "dev", "rows",
                "cycles", "est cost ms", "msg in", "msg out", "comm stall");
    for (std::size_t d = 0; d < result->stats.devices.size(); ++d) {
      const fleet::DeviceStats& ds = result->stats.devices[d];
      const std::string rows = "[" + std::to_string(ds.row_begin) + "," +
                               std::to_string(ds.row_end) + ")";
      std::printf("  %-3zu %-14s %10llu %12.4f %7llu %7llu %10llu%s%s\n", d,
                  rows.c_str(), static_cast<unsigned long long>(ds.cycles),
                  ds.est_cost_ms,
                  static_cast<unsigned long long>(ds.in_messages),
                  static_cast<unsigned long long>(ds.out_messages),
                  static_cast<unsigned long long>(ds.comm_delay_cycles),
                  static_cast<int>(d) == result->stats.critical_device
                      ? "  <- critical"
                      : "",
                  ds.status.ok() ? "" : "  FAILED");
    }
    if (reliable) {
      std::printf("  recovery: %zu failover%s, %llu rows re-executed, "
                  "%llu device-rung + %llu host-rung recoveries\n",
                  result->stats.failovers.size(),
                  result->stats.failovers.size() == 1 ? "" : "s",
                  static_cast<unsigned long long>(
                      result->stats.rows_reexecuted),
                  static_cast<unsigned long long>(
                      result->stats.device_rung_recoveries),
                  static_cast<unsigned long long>(
                      result->stats.host_rung_recoveries));
      if (!result->stats.failovers.empty()) {
        std::printf("  %-3s %-9s %-10s %-12s %10s\n", "dev", "cause",
                    "attempts", "recovered on", "residual");
        for (const fleet::FailoverRecord& record : result->stats.failovers) {
          std::string attempts;
          for (std::size_t i = 0; i < record.attempts.size(); ++i) {
            if (i > 0) attempts += ",";
            attempts += record.attempts[i] == fleet::kHostExecutor
                            ? "host"
                            : std::to_string(record.attempts[i]);
          }
          std::printf("  %-3d %-9s %-10s %-12s %10.2e%s\n", record.device,
                      record.upstream_induced ? "upstream" : "device",
                      attempts.c_str(),
                      record.recovered_on == fleet::kHostExecutor
                          ? "host"
                          : ("device " + std::to_string(record.recovered_on))
                                .c_str(),
                      record.residual,
                      record.verified ? "" : "  NOT RECOVERED");
        }
      }
    }
    std::printf("  makespan %llu cycles (%.4f ms simulated), %lld cross "
                "edges, %llu messages, %llu comm bytes\n",
                static_cast<unsigned long long>(result->stats.makespan_cycles),
                result->stats.exec_ms,
                static_cast<long long>(result->stats.cross_edges),
                static_cast<unsigned long long>(result->stats.total_messages),
                static_cast<unsigned long long>(result->stats.total_comm_bytes));
    if (!result->status.ok()) {
      std::printf("  fleet status: %s\n", result->status.ToString().c_str());
      return 1;
    }
    const double fleet_error = MaxRelativeError(result->x, problem.x_true);
    std::printf("  max relative error  %.2e\n", fleet_error);
    bool fleet_check = true;
    if (reliable && !result->stats.failovers.empty()) {
      // Recovery already ran the final stitched verification; report it
      // instead of re-verifying.
      fleet_check = result->verification.passed;
      std::printf("  residual            %.2e (bound %.0e) — %s\n",
                  result->verification.residual,
                  VerifyOptions{}.residual_bound,
                  fleet_check ? "VERIFIED (recovered)" : "FAILED VERIFICATION");
    } else if (check || reliable) {
      const Verification verdict = VerifySolution(lower, problem.b, result->x);
      fleet_check = verdict.passed;
      std::printf("  residual            %.2e (bound %.0e) — %s\n",
                  verdict.residual, VerifyOptions{}.residual_bound,
                  fleet_check ? "VERIFIED" : "FAILED VERIFICATION");
    }
    return fleet_error < 1e-8 && fleet_check ? 0 : 1;
  }

  SolveResult solved;
  bool ladder_verified = true;
  if (reliable) {
    auto result = solver.SolveReliable(algorithm, problem.b);
    if (!result.ok()) {
      std::fprintf(stderr, "solve failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("\nretry ladder (%zu attempt%s, %.4f ms verifying):\n",
                result->attempts.size(),
                result->attempts.size() == 1 ? "" : "s", result->verify_ms);
    for (const AttemptRecord& attempt : result->attempts) {
      std::printf("  %-20s %-18s residual %.2e %s\n",
                  AlgorithmName(attempt.algorithm),
                  StatusCodeName(attempt.status), attempt.residual,
                  attempt.verified ? "VERIFIED" : "rejected");
    }
    solved = std::move(result->solve);
    algorithm = result->final_algorithm;
    ladder_verified = result->verified;
  } else {
    auto result = solver.Solve(algorithm, problem.b);
    if (!result.ok()) {
      std::fprintf(stderr, "solve failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    solved = std::move(*result);
  }
  const double error = MaxRelativeError(solved.x, problem.x_true);
  std::printf("\nsolved with %s on %s\n", AlgorithmName(algorithm),
              options.device.name.c_str());
  std::printf("  solve time          %.4f ms%s\n", solved.solve_ms,
              IsDeviceAlgorithm(algorithm) ? " (simulated)" : " (measured)");
  std::printf("  preprocessing       %.4f ms\n", solved.preprocessing_ms);
  std::printf("  throughput          %.2f GFLOPS\n", solved.gflops);
  if (IsDeviceAlgorithm(algorithm)) {
    std::printf("  bandwidth           %.2f GB/s\n", solved.bandwidth_gbs);
    std::printf("  warp instructions   %llu\n",
                static_cast<unsigned long long>(
                    solved.device_stats.instructions));
  }
  std::printf("  max relative error  %.2e\n", error);

  bool check_passed = true;
  if (check || reliable) {
    const Verification verdict = VerifySolution(lower, problem.b, solved.x);
    check_passed = verdict.passed && ladder_verified;
    std::printf("  residual            %.2e (bound %.0e) — %s\n",
                verdict.residual, VerifyOptions{}.residual_bound,
                check_passed ? "VERIFIED" : "FAILED VERIFICATION");
  }
  if (!faults_path.empty()) {
    const sim::FaultCounts counts = injector.counts();
    std::printf("  injected faults     drop=%llu flip=%llu stuck=%llu "
                "delay=%llu\n",
                static_cast<unsigned long long>(
                    counts[sim::FaultKind::kDropPublish]),
                static_cast<unsigned long long>(
                    counts[sim::FaultKind::kBitFlipStore]),
                static_cast<unsigned long long>(
                    counts[sim::FaultKind::kStuckWarp]),
                static_cast<unsigned long long>(
                    counts[sim::FaultKind::kMemDelay]));
  }

  if (trace_session) {
    if (trace_summary) {
      std::printf("\n%s", trace_session->attribution().SummaryTable().c_str());
      const trace::SolveTimeline& timeline = trace_session->timeline();
      std::printf("solve progress: 50%% of rows by cycle %llu, 90%% by "
                  "%llu, all by %llu (%zu publishes",
                  static_cast<unsigned long long>(
                      timeline.CycleAtFraction(0.5, lower.rows())),
                  static_cast<unsigned long long>(
                      timeline.CycleAtFraction(0.9, lower.rows())),
                  static_cast<unsigned long long>(
                      timeline.CycleAtFraction(1.0, lower.rows())),
                  timeline.records().size());
      if (timeline.unresolved() > 0) {
        std::printf(", %llu unresolved",
                    static_cast<unsigned long long>(timeline.unresolved()));
      }
      std::printf(")\n");
    }
    if (!trace_path.empty()) {
      if (const Status status = trace_session->WriteChromeTrace(trace_path);
          !status.ok()) {
        std::fprintf(stderr, "cannot write trace: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      std::printf("wrote Chrome trace to %s (%zu events; open at "
                  "ui.perfetto.dev)\n",
                  trace_path.c_str(), trace_session->chrome().event_count());
    }
    if (!trace_csv_path.empty()) {
      if (const Status status =
              trace_session->attribution().WriteCsv(trace_csv_path);
          !status.ok()) {
        std::fprintf(stderr, "cannot write trace CSV: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      std::printf("wrote per-warp attribution CSV to %s\n",
                  trace_csv_path.c_str());
    }
  }

  if (tune) {
    AutotuneOptions tune_options;
    // Tracing forces the serial sweep; otherwise fan candidates across the
    // requested worker count (0 = hardware concurrency). The tuned result is
    // identical either way.
    tune_options.threads = want_trace ? 1 : static_cast<int>(threads);
    auto tuned = TuneHybridThreshold(lower, options.device, tune_options);
    if (!tuned.ok()) {
      std::fprintf(stderr, "autotune failed: %s\n",
                   tuned.status().ToString().c_str());
      return 1;
    }
    std::printf("\nhybrid threshold autotune (§4.4):\n");
    for (const ThresholdProfile& profile : tuned->profile) {
      std::printf("  threshold %3d: %7.2f GFLOPS\n", profile.threshold,
                  profile.gflops);
    }
    std::printf("  best threshold %d (%.2f GFLOPS); pure Capellini %.2f, "
                "pure SyncFree %.2f\n",
                tuned->best_threshold, tuned->best_gflops,
                tuned->capellini_gflops, tuned->syncfree_gflops);
  }
  return error < 1e-8 && check_passed ? 0 : 1;
}

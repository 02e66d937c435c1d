// The three workloads. Each is a closed loop driven from the calling
// (generator) thread through the library's public calls only; NOTES.md gives
// the reasons behind each shape.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <thread>

#include "bench.h"
#include "core/solver.h"
#include "core/verify.h"
#include "fleet/fleet.h"
#include "fleet/partition.h"
#include "fleet/shard.h"
#include "matrix/triangular.h"
#include "update/delta.h"

namespace perfbench {
namespace {

using capellini::Csr;
using capellini::NamedMatrix;
using capellini::ReferenceProblem;
using capellini::Val;

constexpr double kMaxRelativeError = 1e-8;
// How long the generator blocks on the oldest request before re-scanning the
// others; bounds the lag of an out-of-order completion.
constexpr auto kPoll = std::chrono::microseconds(250);
constexpr int kDeltasPerUpdate = 8;

/// serve_zipf's CPUs: the service's workers get every CPU the process may
/// use but one, and the generator gets that one. The generator wakes every
/// kPoll to look for completions. Left to the scheduler, it sometimes shared
/// a CPU with a worker and preempted it thousands of times a run: two of
/// eight 6 s runs of one seed had 4,635 and 5,379 involuntary context
/// switches, the rest 14-57, and those two had the lowest throughput. Split,
/// 18 runs stayed under 100, and the benchmark's own work stays off the
/// system's CPUs.
struct CpuSplit {
  bool enabled = false;  // false when there is no CPU to spare
  cpu_set_t workers;
  cpu_set_t generator;
};

CpuSplit SplitCpus(int workers) {
  CpuSplit split;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0 ||
      CPU_COUNT(&allowed) < workers + 1) {
    return split;
  }
  split.workers = allowed;
  CPU_ZERO(&split.generator);
  int cpu = CPU_SETSIZE - 1;
  while (!CPU_ISSET(cpu, &allowed)) --cpu;
  CPU_CLR(cpu, &split.workers);
  CPU_SET(cpu, &split.generator);
  split.enabled = true;
  return split;
}

/// Moves the calling thread; threads it starts later inherit the set.
void RunOn(const cpu_set_t& cpus) {
  if (sched_setaffinity(0, sizeof cpus, &cpus) != 0) {
    std::perror("perfbench: sched_setaffinity");
  }
}

int HostCores() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

void Report(const char* what, const std::string& detail) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, detail.c_str());
}

/// The manufactured-solution check plus the library's own residual check.
bool CheckSolution(const Csr& lower, const ReferenceProblem& problem,
                   std::span<const Val> x, Tracer& tracer, PassStats& stats) {
  if (x.size() != problem.x_true.size()) return false;
  Tracer::Scope check(tracer, "check answer", Layer::kBench);
  bool passed;
  {
    Tracer::Scope verify(tracer, "VerifySolution", Layer::kCore);
    passed = capellini::VerifySolution(lower, problem.b, x).passed;
    stats.verify_ms.push_back(verify.End());
  }
  passed = passed &&
           capellini::MaxRelativeError(x, problem.x_true) <= kMaxRelativeError;
  stats.bench_ms += check.End();
  return passed;
}

/// Copies of the corpus matrices for one setup, or on the last setup the
/// corpus's own, which the caller then drops.
std::vector<Csr> MatricesFor(std::vector<NamedMatrix>& corpus, bool last) {
  std::vector<Csr> matrices;
  for (NamedMatrix& named : corpus) {
    matrices.push_back(last ? std::move(named.matrix) : named.matrix);
  }
  return matrices;
}

// ------------------------------------------- serve_zipf and update_mix

/// K=2 devices x 1 worker behind fleet::ShardedSolveService, with reliable
/// mode, the per-handle breaker and device health tracking on.
class ShardWorkload : public Workload {
 public:
  // update_mix runs one op at a time and the scheduler already runs most of
  // its solves on the generator's CPU, so its threads are left unplaced.
  explicit ShardWorkload(bool updates)
      : updates_(updates),
        cpus_(updates ? CpuSplit{} : SplitCpus(kDevices * kWorkers)) {}

  std::vector<SetupStats> Setup(Tracer& tracer, int reps) override {
    // The old system goes before the generator's transient memory comes.
    service_.reset();
    handles_.clear();
    std::vector<NamedMatrix> corpus = MakeCorpus();
    std::vector<SetupStats> setups;
    for (int rep = 0; rep < reps; ++rep) {
      setups.push_back(SetupOnce(corpus, rep + 1 == reps, tracer));
    }
    return setups;
  }

  int matrices() const override { return static_cast<int>(handles_.size()); }

  void Run(const PassOptions& options, std::uint64_t seed,
           PassStats& stats) override {
    Tracer& tracer = *options.tracer;
    OpStream ops(static_cast<int>(handles_.size()), seed, updates_);
    // serve_zipf keeps more requests in flight than there are workers, so
    // queues form and requests coalesce; update_mix runs one op at a time so
    // an ApplyDelta on the generator thread never delays an observation.
    const std::size_t window = updates_ ? 1 : 4;
    std::deque<InFlight> inflight;
    std::map<std::pair<int, std::uint64_t>, Launch> launches;
    std::vector<std::size_t> delta_log(handles_.size(), 0);
    stats.device_host_ms.assign(
        static_cast<std::size_t>(service_->num_devices()), 0.0);

    const Clock::time_point start = Clock::now();
    Clock::time_point last_done = start;
    std::uint64_t issued = 0;
    while (issued < options.ops) {
      const Op op = ops.Next();
      tracer.BeginOp(++issued);
      if (op.update) {
        while (!inflight.empty()) Finish(inflight, launches, stats, tracer, last_done);
        ApplyUpdate(op, delta_log, stats, tracer);
        last_done = Clock::now();
        continue;
      }
      while (inflight.size() >= window) Finish(inflight, launches, stats, tracer, last_done);
      Submit(op, issued, inflight, stats, tracer);
    }
    while (!inflight.empty()) Finish(inflight, launches, stats, tracer, last_done);
    // One op at a time leaves the system idle while the generator builds
    // inputs and checks answers, so that time is not the system's. With
    // requests in flight the workers run meanwhile, and it stays.
    stats.elapsed_s = MsBetween(start, last_done) / 1e3;
    stats.wall_s = stats.elapsed_s - (window == 1 ? stats.bench_ms / 1e3 : 0.0);

    for (const auto& [key, launch] : launches) {
      stats.launch_groups += 1.0;
      stats.launches += static_cast<double>(launch.stats.launches);
      stats.sim_ms += launch.sim_ms;
      stats.cycles += static_cast<double>(launch.stats.cycles);
      stats.instructions += static_cast<double>(launch.stats.instructions);
      stats.dram_bytes += static_cast<double>(launch.stats.dram_bytes);
      if (launch.device_path) stats.launch_host_ms += launch.host_ms;
      stats.device_host_ms[static_cast<std::size_t>(key.first)] += launch.host_ms;
    }
    for (const std::size_t bytes : delta_log) {
      stats.delta_log_bytes += static_cast<double>(bytes);
    }
    for (int d = 0; d < service_->num_devices(); ++d) {
      stats.epoch_swaps +=
          static_cast<double>(service_->registry(d).Snapshot().updates);
    }
  }

 private:
  struct InFlight {
    std::uint64_t op = 0;
    int device = 0;
    capellini::serve::MatrixRegistry::EntryRef entry;  // epoch admitted on
    ReferenceProblem problem;
    std::future<capellini::serve::ServeResult> future;
    Clock::time_point submitted, pending_since;
  };
  /// One dequeue group: coalesced requests share its launch.
  struct Launch {
    capellini::sim::LaunchStats stats;
    double sim_ms = 0.0;
    double host_ms = 0.0;  // the slowest member's execute ms
    bool device_path = false;
  };

  /// Drops the previous service, then constructs a new one and registers the
  /// corpus matrices (see MatricesFor); only the last two steps are timed.
  SetupStats SetupOnce(std::vector<NamedMatrix>& corpus, bool last,
                       Tracer& tracer) {
    service_.reset();
    handles_.clear();
    std::vector<Csr> matrices = MatricesFor(corpus, last);
    SetupStats setup;
    Tracer::Scope total(tracer, "setup", Layer::kBench);
    // The constructor starts the workers, which keep the generator's CPUs.
    if (cpus_.enabled) RunOn(cpus_.workers);
    {
      Tracer::Scope scope(tracer, "ShardedSolveService()", Layer::kFleet);
      service_ = std::make_unique<capellini::fleet::ShardedSolveService>(
          Options());
    }
    if (cpus_.enabled) RunOn(cpus_.generator);
    for (std::size_t i = 0; i < matrices.size(); ++i) {
      Tracer::Scope scope(tracer, "ShardedSolveService::Register",
                          Layer::kFleet);
      auto handle = service_->Register(std::move(matrices[i]), corpus[i].name);
      setup.register_ms += scope.End();
      if (!handle.ok()) {
        std::fprintf(stderr, "perfbench: Register failed: %s\n",
                     handle.status().ToString().c_str());
        std::exit(1);
      }
      handles_.push_back(*handle);
    }
    setup.seconds = total.End() / 1e3;
    for (const auto& handle : handles_) {
      setup.analysis_ms +=
          service_->registry(handle.device).TryPeek(handle.handle)->analysis_ms;
    }
    return setup;
  }

  static constexpr int kDevices = 2;
  static constexpr int kWorkers = 1;  // per device

  static capellini::fleet::ShardOptions Options() {
    capellini::fleet::ShardOptions options;
    options.num_devices = kDevices;
    options.service.workers = kWorkers;
    options.service.reliable = true;
    options.service.breaker_threshold = 3;
    options.service.breaker_window = 16;
    options.health.threshold = 3;
    options.health.window = 16;
    return options;
  }

  void Submit(const Op& op, std::uint64_t id, std::deque<InFlight>& inflight,
              PassStats& stats, Tracer& tracer) {
    const capellini::fleet::ShardedHandle& handle =
        handles_[static_cast<std::size_t>(op.matrix)];
    InFlight request;
    request.op = id;
    request.device = handle.device;
    request.entry = service_->registry(handle.device).TryPeek(handle.handle);
    std::vector<Val> b;
    {
      Tracer::Scope input(tracer, "make right-hand side", Layer::kBench);
      request.problem = capellini::MakeReferenceProblem(
          request.entry->solver.matrix(), op.seed);
      b = request.problem.b;
      stats.bench_ms += input.End();
    }
    capellini::serve::RequestOptions request_options;
    if (updates_) request_options.algorithm = capellini::Algorithm::kSerialCpu;

    Tracer::Scope submit(tracer, "ShardedSolveService::Submit", Layer::kFleet);
    request.submitted = submit.start();
    auto future = service_->Submit(handle, std::move(b), request_options);
    stats.submit_us.push_back(1e3 * submit.End());
    ++stats.attempted;
    if (!future.ok()) {
      ++stats.refused;
      Report("refused", future.status().ToString());
      return;
    }
    request.future = std::move(*future);
    request.pending_since = Clock::now();
    inflight.push_back(std::move(request));
  }

  /// Waits for any in-flight request, then checks and records it.
  void Finish(std::deque<InFlight>& inflight,
              std::map<std::pair<int, std::uint64_t>, Launch>& launches,
              PassStats& stats, Tracer& tracer,
              Clock::time_point& last_done) {
    std::size_t index = 0;
    Clock::time_point observed;
    double lag_ms = 0.0;
    {
      Tracer::Scope wait(tracer, "await completion", Layer::kServe);
      for (bool found = false; !found;) {
        const Clock::time_point scan = Clock::now();
        for (index = 0; index < inflight.size(); ++index) {
          InFlight& request = inflight[index];
          if (request.future.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
            observed = scan;
            lag_ms = MsBetween(request.pending_since, scan);
            found = true;
            break;
          }
          request.pending_since = scan;
        }
        if (!found && inflight.front().future.wait_for(kPoll) ==
                          std::future_status::ready) {
          observed = Clock::now();
          index = 0;
          found = true;
        }
      }
    }
    InFlight request = std::move(inflight[index]);
    inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(index));
    last_done = observed;

    tracer.BeginOp(request.op);
    const capellini::serve::ServeResult result = request.future.get();
    const double latency_ms = MsBetween(request.submitted, observed);
    tracer.Count("latency_ms", latency_ms);
    stats.lag_ms.push_back(lag_ms);
    if (!result.status.ok()) {
      ++stats.failed;
      Report("solve failed", result.status.ToString());
      return;
    }
    if (!result.verified ||
        !CheckSolution(request.entry->solver.matrix(), request.problem,
                       result.solve.x, tracer, stats)) {
      ++stats.wrong;
      Report("wrong answer", request.entry->name);
      return;
    }
    ++stats.completed;
    const double execute_ms = latency_ms - result.queue_wait_ms;
    stats.latency_ms.push_back(latency_ms);
    stats.queue_wait_ms.push_back(result.queue_wait_ms);
    stats.execute_ms.push_back(execute_ms);
    stats.attempts += result.attempts;
    stats.cost_ratio.push_back(result.est_cost_ms / execute_ms);

    Launch& launch = launches[{request.device, result.dequeue_seq}];
    if (capellini::IsDeviceAlgorithm(result.algorithm)) {
      launch.device_path = true;
      launch.stats = result.solve.device_stats;
      launch.sim_ms = result.solve.solve_ms;
    }
    launch.host_ms = std::max(launch.host_ms, execute_ms);
  }

  void ApplyUpdate(const Op& op, std::vector<std::size_t>& delta_log,
                   PassStats& stats, Tracer& tracer) {
    const capellini::fleet::ShardedHandle& handle =
        handles_[static_cast<std::size_t>(op.matrix)];
    const auto entry = service_->registry(handle.device).TryPeek(handle.handle);
    const std::uint64_t epoch = entry->epoch;
    capellini::update::DeltaBatch batch;
    {
      Tracer::Scope input(tracer, "make delta batch", Layer::kBench);
      batch = capellini::update::MakeRandomBatch(
          entry->solver.matrix(), kDeltasPerUpdate, op.structural, op.seed);
      stats.bench_ms += input.End();
    }
    Tracer::Scope apply(tracer, "ShardedSolveService::ApplyDelta",
                        Layer::kUpdate);
    auto report = service_->ApplyDelta(handle, batch);
    const double ms = apply.End();
    ++stats.attempted;
    if (!report.ok()) {
      ++stats.failed;
      Report("update failed", report.status().ToString());
      return;
    }
    if (report->epoch != epoch + 1) {
      ++stats.wrong;
      Report("update did not bump the epoch", report->name);
      return;
    }
    tracer.Count("rows_releveled", static_cast<double>(report->rows_releveled));
    ++stats.completed;
    stats.update_ms.push_back(ms);
    stats.relevel_ms += report->analysis_ms;
    stats.rows_releveled += static_cast<double>(report->rows_releveled);
    stats.cone_fraction += static_cast<double>(report->rows_releveled) /
                           static_cast<double>(report->total_rows);
    delta_log[static_cast<std::size_t>(op.matrix)] = report->delta_log_bytes;
  }

  bool updates_;
  CpuSplit cpus_;
  std::unique_ptr<capellini::fleet::ShardedSolveService> service_;
  std::vector<capellini::fleet::ShardedHandle> handles_;
};

// ------------------------------------------------------------ fleet_solve

/// One system at a time, partitioned across K=4 simulated devices.
class FleetWorkload : public Workload {
 public:
  static constexpr int kDevices = 4;

  std::vector<SetupStats> Setup(Tracer& tracer, int reps) override {
    // The old system goes before the generator's transient memory comes.
    fleet_.reset();
    solvers_.clear();
    std::vector<NamedMatrix> corpus = MakeCorpus();
    names_.clear();
    for (const NamedMatrix& named : corpus) names_.push_back(named.name);
    std::vector<SetupStats> setups;
    for (int rep = 0; rep < reps; ++rep) {
      setups.push_back(SetupOnce(corpus, rep + 1 == reps, tracer));
    }
    return setups;
  }

  int matrices() const override { return static_cast<int>(solvers_.size()); }

  /// Single-device simulated ms of each system, for fleet.makespan_vs_k1.
  void PrepareTraced(std::uint64_t seed) override {
    k1_sim_ms_.clear();
    for (const auto& solver : solvers_) {
      const auto problem =
          capellini::MakeReferenceProblem(solver->matrix(), seed);
      auto result = solver->Solve(capellini::Algorithm::kCapellini, problem.b);
      if (!result.ok()) Report("K=1 reference failed", result.status().ToString());
      k1_sim_ms_.push_back(result.ok() ? result->solve_ms : 0.0);
    }
  }

  void Run(const PassOptions& options, std::uint64_t seed,
           PassStats& stats) override {
    Tracer& tracer = *options.tracer;
    OpStream ops(static_cast<int>(solvers_.size()), seed, /*updates=*/false);
    const capellini::fleet::FleetSolver fleet_solver(fleet_.get());
    stats.device_host_ms.assign(kDevices, 0.0);

    const Clock::time_point start = Clock::now();
    std::uint64_t issued = 0;
    while (issued < options.ops) {
      const Op op = ops.Next();
      tracer.BeginOp(++issued);
      const capellini::Solver& solver =
          *solvers_[static_cast<std::size_t>(op.matrix)];
      ReferenceProblem problem;
      {
        Tracer::Scope input(tracer, "make right-hand side", Layer::kBench);
        problem = capellini::MakeReferenceProblem(solver.matrix(), op.seed);
        stats.bench_ms += input.End();
      }
      if (tracer.enabled()) {
        // The partitioner alone, on the op's matrix (Solve runs it again).
        Tracer::Scope partition(tracer, "PartitionRows", Layer::kFleet);
        auto cut = capellini::fleet::PartitionRows(
            solver.matrix(), kDevices,
            capellini::fleet::PartitionStrategy::kLevelAware, &solver.Levels());
        stats.partition_ms.push_back(partition.End());
        if (!cut.ok()) Report("PartitionRows failed", cut.status().ToString());
      }

      Tracer::Scope solve(tracer, "FleetSolver::Solve", Layer::kFleet);
      auto result = fleet_solver.Solve(solver, problem.b);
      const double latency_ms = solve.End();
      ++stats.attempted;
      if (!result.ok() || !result->status.ok()) {
        ++stats.failed;
        Report("fleet solve failed",
               (result.ok() ? result->status : result.status()).ToString());
        continue;
      }
      if (!CheckSolution(solver.matrix(), problem, result->x, tracer, stats)) {
        ++stats.wrong;
        Report("wrong answer", names_[static_cast<std::size_t>(op.matrix)]);
        continue;
      }
      ++stats.completed;
      stats.latency_ms.push_back(latency_ms);
      Record(result->stats, latency_ms, op.matrix, stats);
      tracer.Count("makespan_cycles",
                   static_cast<double>(result->stats.makespan_cycles));
    }
    // One op at a time: the generator's inputs and checks are not the
    // system's time.
    stats.elapsed_s = MsBetween(start, Clock::now()) / 1e3;
    stats.wall_s = stats.elapsed_s - stats.bench_ms / 1e3;
  }

 private:
  /// Drops the previous fleet, then constructs a new one and one analysed
  /// Solver per corpus matrix (see MatricesFor); only the last two steps
  /// are timed.
  SetupStats SetupOnce(std::vector<NamedMatrix>& corpus, bool last,
                       Tracer& tracer) {
    fleet_.reset();
    solvers_.clear();
    std::vector<Csr> matrices = MatricesFor(corpus, last);
    SetupStats setup;
    Tracer::Scope total(tracer, "setup", Layer::kBench);
    {
      Tracer::Scope scope(tracer, "DeviceFleet()", Layer::kFleet);
      capellini::fleet::FleetConfig config;
      config.num_devices = kDevices;
      config.strategy = capellini::fleet::PartitionStrategy::kLevelAware;
      config.algorithm = capellini::kernels::DeviceAlgorithm::kCapelliniWritingFirst;
      config.host_threads = std::min(kDevices, HostCores());
      config.recovery.enabled = true;
      fleet_ = std::make_unique<capellini::fleet::DeviceFleet>(config);
    }
    for (Csr& matrix : matrices) {
      {
        Tracer::Scope scope(tracer, "Solver()", Layer::kCore);
        solvers_.push_back(
            std::make_unique<capellini::Solver>(std::move(matrix)));
      }
      Tracer::Scope scope(tracer, "Solver::analysis", Layer::kGraph);
      solvers_.back()->analysis();
      setup.analysis_ms += scope.End();
    }
    setup.seconds = total.End() / 1e3;
    return setup;
  }

  void Record(const capellini::fleet::FleetStats& fleet, double latency_ms,
              int matrix, PassStats& stats) const {
    double cycles = 0.0;
    double attempts = 1.0;
    for (std::size_t d = 0; d < fleet.devices.size(); ++d) {
      const capellini::fleet::DeviceStats& device = fleet.devices[d];
      stats.launches += static_cast<double>(device.launch.launches);
      stats.cycles += static_cast<double>(device.launch.cycles);
      stats.instructions += static_cast<double>(device.launch.instructions);
      stats.dram_bytes += static_cast<double>(device.launch.dram_bytes);
      stats.launch_host_ms += device.host_ms;
      stats.device_host_ms[d] += device.host_ms;
      stats.boundary_stall_cycles +=
          static_cast<double>(device.boundary_stall_cycles);
      cycles += static_cast<double>(device.cycles);
    }
    for (const auto& failover : fleet.failovers) {
      attempts += static_cast<double>(failover.attempts.size());
    }
    const double makespan = static_cast<double>(fleet.makespan_cycles);
    stats.device_cycles += cycles;
    stats.balance += cycles / static_cast<double>(fleet.devices.size()) / makespan;
    stats.sim_ms += fleet.exec_ms;
    stats.makespan_cycles += makespan;
    stats.messages += static_cast<double>(fleet.total_messages);
    stats.comm_bytes += static_cast<double>(fleet.total_comm_bytes);
    stats.rows_reexecuted += static_cast<double>(fleet.rows_reexecuted);
    stats.attempts += attempts;
    stats.fleet_wall_ms += latency_ms;
    if (!k1_sim_ms_.empty() && k1_sim_ms_[static_cast<std::size_t>(matrix)] > 0.0) {
      stats.makespan_vs_k1 +=
          fleet.exec_ms / k1_sim_ms_[static_cast<std::size_t>(matrix)];
    }
  }

  std::vector<std::string> names_;
  std::unique_ptr<capellini::fleet::DeviceFleet> fleet_;
  std::vector<std::unique_ptr<capellini::Solver>> solvers_;
  std::vector<double> k1_sim_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "serve_zipf") {
    return std::make_unique<ShardWorkload>(/*updates=*/false);
  }
  if (name == "update_mix") return std::make_unique<ShardWorkload>(/*updates=*/true);
  if (name == "fleet_solve") return std::make_unique<FleetWorkload>();
  return nullptr;
}

}  // namespace perfbench

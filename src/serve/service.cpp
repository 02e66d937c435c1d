#include "serve/service.h"

#include <algorithm>
#include <cstdio>

#include "core/verify.h"
#include "kernels/launch.h"
#include "support/thread_pool.h"
#include "support/timer.h"

namespace capellini::serve {
namespace {

/// Algorithms with a k-right-hand-side kernel (kernels/mrhs.cpp). Everything
/// else is served per-request.
bool HasMrhsForm(Algorithm algorithm) {
  return algorithm == Algorithm::kCapellini ||
         algorithm == Algorithm::kSyncFreeCsr;
}

kernels::MrhsAlgorithm ToMrhsAlgorithm(Algorithm algorithm) {
  return algorithm == Algorithm::kCapellini
             ? kernels::MrhsAlgorithm::kCapelliniMrhs
             : kernels::MrhsAlgorithm::kSyncFreeMrhs;
}

double ElapsedMs(std::chrono::steady_clock::time_point begin,
                 std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

std::string RetryAfterHint(double retry_ms) {
  char buf[48];
  std::snprintf(buf, sizeof buf, " — retry after ~%.1f ms",
                std::max(0.0, retry_ms));
  return buf;
}

}  // namespace

ServiceOptions SolveService::DeterministicOptions() {
  ServiceOptions options;
  options.workers = 1;
  options.max_batch = 1;
  return options;
}

SolveService::SolveService(MatrixRegistry* registry, ServiceOptions options)
    : registry_(registry),
      options_(options),
      breaker_options_{.threshold = options.breaker_threshold,
                       .window = options.breaker_window,
                       .rate = options.breaker_rate,
                       .probe_cooldown = options.breaker_cooldown,
                       .probe_timeout = 0} {
  CAPELLINI_CHECK_MSG(registry_ != nullptr, "service needs a registry");
  options_.workers = std::max(1, options_.workers);
  options_.max_batch = std::clamp(options_.max_batch, 1, 6);
  paused_ = options_.start_paused;
  pool_ = std::make_unique<ThreadPool>(options_.workers);
  worker_done_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    worker_done_.push_back(pool_->Submit([this] { WorkerLoop(); }));
  }
}

SolveService::~SolveService() { Shutdown(); }

void SolveService::Start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

Expected<UpdateReport> SolveService::ApplyDelta(
    MatrixHandle handle, const update::DeltaBatch& batch) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      stats_.RecordUpdateRejection();
      return FailedPrecondition("service is shut down");
    }
  }
  // The registry swap does not touch the service queue: requests admitted
  // before this point pinned their EntryRef and finish on the old epoch.
  Expected<UpdateReport> report = registry_->ApplyDelta(handle, batch);
  if (!report.ok()) {
    stats_.RecordUpdateRejection();
    return report.status();
  }
  stats_.RecordUpdate(*report, report->name);
  return report;
}

void SolveService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_ && worker_done_.empty()) return;
    shutdown_ = true;
    paused_ = false;  // accepted work still drains
  }
  cv_.notify_all();
  for (std::future<void>& done : worker_done_) done.get();
  worker_done_.clear();
  pool_.reset();
}

double SolveService::QueuedCostMs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_cost_ms_;
}

Expected<std::future<ServeResult>> SolveService::Submit(
    MatrixHandle handle, std::vector<Val> b, RequestOptions options) {
  // Peek, not Acquire: LRU promotion and cache-hit accounting must only
  // happen for admitted requests — a rejected spammer must not be able to
  // refresh its entry and evict well-behaved residents.
  auto peeked = registry_->Peek(handle);
  if (!peeked.ok()) return peeked.status();
  const MatrixRegistry::EntryRef& entry = *peeked;
  if (b.size() != static_cast<std::size_t>(entry->solver.matrix().rows())) {
    return InvalidArgument(
        "b has " + std::to_string(b.size()) + " entries, matrix '" +
        entry->name + "' has " +
        std::to_string(entry->solver.matrix().rows()) + " rows");
  }

  Request request;
  request.handle = handle;
  request.entry = entry;
  request.b = std::move(b);
  // Memoized analysis makes the default a cache hit, never a re-analysis.
  request.algorithm = options.algorithm.has_value()
                          ? *options.algorithm
                          : entry->solver.Recommend();
  request.enqueue_time = Clock::now();
  const double deadline_ms = options.deadline_ms.value_or(0.0);
  request.deadline =
      deadline_ms > 0.0
          ? request.enqueue_time +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(deadline_ms))
          : Clock::time_point::max();
  request.deadline_budget_ms = deadline_ms > 0.0 ? deadline_ms : -1.0;
  request.est_cost_ms = entry->cost.EstimateMs();
  std::future<ServeResult> future = request.promise.get_future();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      stats_.RecordRejection();
      return FailedPrecondition("service is shut down");
    }
    if (queue_.size() >= options_.max_queue) {
      stats_.RecordRejection();
      // Hint: time until one slot frees at the current drain rate.
      const double per_slot_ms =
          queued_cost_ms_ / static_cast<double>(queue_.size()) /
          static_cast<double>(options_.workers);
      return ResourceExhausted(
          "queue full (" + std::to_string(options_.max_queue) +
          " pending requests)" + RetryAfterHint(per_slot_ms));
    }
    if (options_.max_queue_cost_ms > 0.0 && !queue_.empty() &&
        queued_cost_ms_ + request.est_cost_ms > options_.max_queue_cost_ms) {
      stats_.RecordRejection();
      // Hint: time until enough queued work drains that this request fits.
      const double excess =
          queued_cost_ms_ + request.est_cost_ms - options_.max_queue_cost_ms;
      char ledger[96];
      std::snprintf(ledger, sizeof ledger,
                    "estimated queued cost %.3f ms + %.3f ms exceeds budget "
                    "%.3f ms",
                    queued_cost_ms_, request.est_cost_ms,
                    options_.max_queue_cost_ms);
      return ResourceExhausted(
          ledger +
          RetryAfterHint(excess / static_cast<double>(options_.workers)));
    }
    request.seq = next_seq_++;
    queued_cost_ms_ += request.est_cost_ms;
    if (EnqueueLocked(std::move(request))) stats_.RecordReorder();
  }
  registry_->Promote(handle);
  cv_.notify_one();
  return future;
}

bool SolveService::EnqueueLocked(Request request) {
  if (options_.policy == QueuePolicy::kFifo || queue_.empty() ||
      queue_.back().deadline <= request.deadline) {
    queue_.push_back(std::move(request));
    return false;
  }
  // EDF: stable insert before the first strictly-later deadline. Ties keep
  // arrival order, so a deadline-free workload is served in exact FIFO
  // order — the determinism-mode contract.
  auto it = std::upper_bound(
      queue_.begin(), queue_.end(), request.deadline,
      [](const Clock::time_point& deadline, const Request& queued) {
        return deadline < queued.deadline;
      });
  queue_.insert(it, std::move(request));
  return true;
}

std::vector<SolveService::Request> SolveService::PopGroupLocked() {
  std::vector<Request> group;
  group.push_back(std::move(queue_.front()));
  queue_.pop_front();
  // Copy the match keys: push_back below may reallocate the vector. The
  // key is the pinned entry, not the handle: the group is solved (and, in
  // reliable mode, verified) on one epoch's matrix, so a request admitted
  // after an ApplyDelta must not join a leader pinned to the epoch before.
  const MatrixRegistry::Entry* const entry = group.front().entry.get();
  const Algorithm algorithm = group.front().algorithm;
  if (options_.max_batch > 1 && HasMrhsForm(algorithm)) {
    for (auto it = queue_.begin();
         it != queue_.end() &&
         group.size() < static_cast<std::size_t>(options_.max_batch);) {
      if (it->entry.get() == entry && it->algorithm == algorithm) {
        group.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  const std::uint64_t dequeue_seq = next_dequeue_seq_++;
  for (Request& request : group) {
    request.dequeue_seq = dequeue_seq;
    queued_cost_ms_ -= request.est_cost_ms;
  }
  // Sweep float drift so a long-lived ledger cannot wedge admission.
  queued_cost_ms_ = queue_.empty() ? 0.0 : std::max(0.0, queued_cost_ms_);
  return group;
}

void SolveService::WorkerLoop() {
  for (;;) {
    std::vector<Request> group;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] {
        return (!paused_ && !queue_.empty()) || (shutdown_ && queue_.empty());
      });
      if (queue_.empty()) return;  // shutdown with a drained queue
      group = PopGroupLocked();
    }
    ServeGroup(std::move(group));
  }
}

void SolveService::ServeGroup(std::vector<Request> group) {
  // The ONE dequeue timestamp for this group: solo, batched, and expired
  // paths all measure queue_wait_ms from it, so the three agree.
  const Clock::time_point dequeue_time = Clock::now();

  // Expired requests complete with a clean Status without burning a launch.
  std::vector<Request> live;
  live.reserve(group.size());
  for (Request& request : group) {
    if (dequeue_time > request.deadline) {
      ServeResult result;
      result.status = DeadlineExceeded(
          "request expired after " +
          std::to_string(ElapsedMs(request.enqueue_time, dequeue_time)) +
          " ms in queue");
      result.algorithm = request.algorithm;
      result.queue_wait_ms = ElapsedMs(request.enqueue_time, dequeue_time);
      result.dequeue_seq = request.dequeue_seq;
      result.est_cost_ms = request.est_cost_ms;
      stats_.RecordRequest(
          {.handle = request.handle,
           .name = request.entry->name,
           .outcome = ServiceStats::Outcome::kExpired,
           .code = StatusCode::kDeadlineExceeded,
           .batch_size = 1,
           .queue_wait_ms = result.queue_wait_ms,
           .solve_ms = 0.0,
           .deadline_budget_ms = request.deadline_budget_ms,
           .est_cost_ms = request.est_cost_ms});
      request.promise.set_value(std::move(result));
    } else {
      live.push_back(std::move(request));
    }
  }
  if (live.empty()) return;

  const MatrixRegistry::Entry& entry = *live.front().entry;

  // Circuit breaker: one decision per dequeued group (it is one handle).
  switch (BreakerAdmit(live.front().handle)) {
    case Breaker::Decision::kDeflect:
      // Open: complete without burning a launch.
      for (Request& request : live) {
        ServeResult result;
        result.status = ResourceExhausted("circuit breaker open for '" +
                                          entry.name + "' — failing fast");
        result.algorithm = request.algorithm;
        result.batch_size = 1;
        result.queue_wait_ms = ElapsedMs(request.enqueue_time, dequeue_time);
        result.dequeue_seq = request.dequeue_seq;
        result.est_cost_ms = request.est_cost_ms;
        stats_.RecordBreakerShortCircuit();
        FinishRequest(request, entry, std::move(result), 1,
                      /*report_breaker=*/false);
      }
      return;
    case Breaker::Decision::kProbe:
      stats_.RecordBreakerProbe();
      break;  // run the full path; the outcome closes or re-opens
    case Breaker::Decision::kAllow:
      break;
  }

  if (live.size() >= 2) {
    stats_.RecordBatch(static_cast<int>(live.size()));
    ServeBatched(live, entry, dequeue_time);
    return;
  }
  stats_.RecordBatch(1);
  ServeSolo(live.front(), entry, dequeue_time);
}

void SolveService::ServeSolo(Request& request,
                             const MatrixRegistry::Entry& entry,
                             Clock::time_point dequeue_time) {
  ServeResult result;
  result.algorithm = request.algorithm;
  result.batch_size = 1;
  result.queue_wait_ms = ElapsedMs(request.enqueue_time, dequeue_time);
  result.dequeue_seq = request.dequeue_seq;
  result.est_cost_ms = request.est_cost_ms;

  if (options_.reliable) {
    SolveThroughLadder(request, entry, /*spent_attempts=*/0, result);
  } else {
    // The exact Solver::Solve call the one-shot path makes — this identity
    // is the determinism-mode contract.
    auto solved = entry.solver.Solve(request.algorithm, request.b);
    if (solved.ok()) {
      result.solve = std::move(*solved);
    } else {
      result.status = solved.status();
    }
  }
  if (result.status.ok()) entry.cost.Observe(result.solve.solve_ms);
  FinishRequest(request, entry, std::move(result), 1,
                /*report_breaker=*/true);
}

void SolveService::FinishRequest(Request& request,
                                 const MatrixRegistry::Entry& entry,
                                 ServeResult result, int batch_size,
                                 bool report_breaker) {
  const StatusCode code = result.status.code();
  stats_.RecordRequest(
      {.handle = request.handle,
       .name = entry.name,
       .outcome = result.status.ok() ? ServiceStats::Outcome::kOk
                                     : ServiceStats::Outcome::kFailed,
       .code = code,
       .batch_size = batch_size,
       .queue_wait_ms = result.queue_wait_ms,
       .solve_ms = result.solve.solve_ms,
       .deadline_budget_ms = request.deadline_budget_ms,
       .est_cost_ms = request.est_cost_ms});
  if (report_breaker) {
    BreakerReport(request.handle, code);
    // Same gating as the breaker: deflected requests never reached the
    // device, so external health observers never see them either.
    if (options_.outcome_listener) options_.outcome_listener(request.handle, code);
  }
  request.promise.set_value(std::move(result));
}

void SolveService::SolveThroughLadder(const Request& request,
                                      const MatrixRegistry::Entry& entry,
                                      int spent_attempts,
                                      ServeResult& result) const {
  auto reliable = entry.solver.SolveReliable(request.algorithm, request.b);
  if (!reliable.ok()) {
    result.status = reliable.status();
    return;
  }
  result.attempts =
      spent_attempts + static_cast<int>(reliable->attempts.size());
  result.residual = reliable->attempts.back().residual;
  result.verified = reliable->verified;
  result.algorithm = reliable->final_algorithm;
  if (reliable->verified) {
    result.status = Status::Ok();
    result.solve = std::move(reliable->solve);
  } else {
    result.status = DataLoss("no rung of the retry ladder verified '" +
                             entry.name + "'");
  }
}

Breaker::Decision SolveService::BreakerAdmit(MatrixHandle handle) {
  if (!breaker_options_.enabled()) return Breaker::Decision::kAllow;
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  return breakers_.try_emplace(handle, breaker_options_)
      .first->second.Admit()
      .decision;
}

void SolveService::BreakerReport(MatrixHandle handle, StatusCode code) {
  if (!breaker_options_.enabled()) return;
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  const Breaker::Transition transition =
      breakers_.try_emplace(handle, breaker_options_)
          .first->second.Report(IsDeviceFailure(code));
  if (transition == Breaker::Transition::kProbeFailed) {
    stats_.RecordBreakerProbeFailure();
  }
  if (transition == Breaker::Transition::kTripped ||
      transition == Breaker::Transition::kProbeFailed) {
    stats_.RecordBreakerOpen();  // a failed probe re-opens
  }
}

void SolveService::ServeBatched(std::vector<Request>& group,
                                const MatrixRegistry::Entry& entry,
                                Clock::time_point dequeue_time) {
  // `dequeue_time` is ServeGroup's single stamp: re-stamping here would fold
  // deadline filtering and B-assembly time into queue_wait_ms and disagree
  // with the solo path.
  const auto n = static_cast<std::size_t>(entry.solver.matrix().rows());
  const int k = static_cast<int>(group.size());

  // Column-major n x k B: column r is request r's right-hand side.
  std::vector<Val> b(n * static_cast<std::size_t>(k));
  for (int r = 0; r < k; ++r) {
    std::copy(group[static_cast<std::size_t>(r)].b.begin(),
              group[static_cast<std::size_t>(r)].b.end(),
              b.begin() + static_cast<std::size_t>(r) * n);
  }

  const SolverOptions& solver_options = entry.solver.options();
  auto solved = kernels::SolveMrhsOnDevice(
      ToMrhsAlgorithm(group.front().algorithm), entry.solver.matrix(), b, k,
      solver_options.device, solver_options.kernel_options);
  // One launch, one cost observation: the point of coalescing is that k
  // systems cost one structure walk, and the admission model prices the
  // launch, not the request count.
  if (solved.ok()) entry.cost.Observe(solved->exec_ms);

  for (int r = 0; r < k; ++r) {
    Request& request = group[static_cast<std::size_t>(r)];
    ServeResult result;
    result.algorithm = request.algorithm;
    result.batch_size = k;
    result.queue_wait_ms = ElapsedMs(request.enqueue_time, dequeue_time);
    result.dequeue_seq = request.dequeue_seq;
    result.est_cost_ms = request.est_cost_ms;
    bool needs_rescue = !solved.ok();
    if (solved.ok()) {
      result.solve.x.assign(
          solved->x.begin() + static_cast<std::size_t>(r) * n,
          solved->x.begin() + static_cast<std::size_t>(r + 1) * n);
      // Launch-level metrics are shared by the whole group: the point of
      // coalescing is that k systems cost one structure walk.
      result.solve.solve_ms = solved->exec_ms;
      result.solve.preprocessing_ms = solved->preprocessing_ms;
      result.solve.gflops = solved->gflops;
      result.solve.bandwidth_gbs = solved->bandwidth_gbs;
      result.solve.device_stats = solved->stats;
      if (options_.reliable) {
        // Per-column verification: a fault can corrupt one column of the
        // shared launch while the other k-1 are fine.
        const Verification check =
            VerifySolution(entry.solver.matrix(), request.b, result.solve.x);
        result.residual = check.residual;
        result.verified = check.passed;
        needs_rescue = !check.passed;
      }
    } else {
      result.status = solved.status();
    }
    if (needs_rescue && options_.reliable) {
      // Rescue the column solo through the full retry ladder; the shared
      // launch (whether failed outright or merely unverified) counts as one
      // spent attempt.
      SolveThroughLadder(request, entry, /*spent_attempts=*/1, result);
    }
    FinishRequest(request, entry, std::move(result), k,
                  /*report_breaker=*/true);
  }
}

}  // namespace capellini::serve

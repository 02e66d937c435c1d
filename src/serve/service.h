// SolveService: an async, batching solve front-end over the MatrixRegistry.
//
// Request path:
//   Submit(handle, b, opts) -> Expected<std::future<ServeResult>>
//     * admission control runs BEFORE the registry's LRU is touched (a
//       rejected tenant must not refresh its entry or count cache hits):
//       a bounded queue (count bound `max_queue`, plus an optional
//       estimated-cost bound `max_queue_cost_ms` fed by the per-handle cost
//       model) refuses with kResourceExhausted and a computed retry-after
//       hint — backpressure, never an abort;
//     * the queue is earliest-deadline-first under QueuePolicy::kEdf (the
//       default): requests are kept sorted by (deadline, arrival seq), so a
//       deadline-free workload degenerates to exact FIFO and
//       DeterministicOptions() keeps byte-identical results. kFifo preserves
//       strict arrival order for A/B comparison (bench_serve's overload
//       sweep);
//     * workers (support/thread_pool) pop the queue; the COALESCING step
//       scans the queue in scheduling order and groups up to `max_batch`
//       requests pinned to the same epoch of the same handle with the same
//       algorithm into ONE SolveMrhsOnDevice launch — the structure walk is
//       paid once for the whole group (Liu et al.'s mrhs result, applied as
//       a scheduler policy). Algorithms without an mrhs form fall back to
//       per-request Solver::Solve;
//     * per-request deadlines are checked at dequeue time — an expired
//       request completes with kDeadlineExceeded without burning a launch;
//     * every terminal outcome hits ServiceStats exactly once: ok/failed/
//       expired through RecordRequest, admission refusals (queue full, cost
//       bound, shutdown) through RecordRejection;
//     * observed solve times feed back into the registry entry's EWMA cost
//       model, so admission estimates track the workload;
//     * simulator watchdog trips (the naive kernel's deadlock) surface as
//       the kDeadlock Status inside the future, exactly like the library
//       path. Nothing on a served path aborts the process;
//     * a per-handle support/breaker.h Breaker deflects a handle whose
//       device path keeps failing: the state machine the fleet's
//       DeviceHealthTracker runs per device.
//
// Determinism contract: with DeterministicOptions() (workers=1, max_batch=1,
// no deadlines, cost admission off) the service is a plain FIFO executor —
// every request runs the identical Solver::Solve call the one-shot path
// would, in submission order, so the returned SolveResults are byte-identical
// to a serial loop. serve_test and bench_serve's CI gate both checksum this,
// under both queue policies.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/solver.h"
#include "serve/registry.h"
#include "serve/stats.h"
#include "support/breaker.h"

namespace capellini {
class ThreadPool;  // support/thread_pool.h
}

namespace capellini::serve {

enum class QueuePolicy {
  /// Strict arrival order (the PR-3 behavior, kept for A/B sweeps).
  kFifo,
  /// Earliest deadline first, stable on arrival order for ties. Deadline-free
  /// requests sort last (deadline = +inf) in arrival order.
  kEdf,
};

struct ServiceOptions {
  /// Worker threads draining the queue.
  int workers = 2;
  /// Coalescing cap: up to this many same-handle requests per launch.
  /// Clamped to [1, 6] (the mrhs kernel's accumulator-register limit).
  int max_batch = 4;
  /// Count-based admission bound; Submit rejects with kResourceExhausted
  /// when the queue holds this many pending requests.
  std::size_t max_queue = 256;
  /// Cost-based admission bound: reject when the estimated cost of the
  /// queued work (per-handle cost model: analysis-seeded, EWMA over observed
  /// solve ms) plus the incoming request exceeds this many milliseconds.
  /// 0 = disabled. An empty queue always admits one request, so a single
  /// expensive matrix can never be starved out.
  double max_queue_cost_ms = 0.0;
  /// Queue ordering policy. kEdf with no deadlines is exactly kFifo.
  QueuePolicy policy = QueuePolicy::kEdf;
  /// If true the workers do not start draining until Start() — tests and
  /// benches use this to load the queue first so coalescing is
  /// deterministic and maximal.
  bool start_paused = false;
  /// Self-healing solves (core/verify.h): verify every solution (default
  /// VerifyOptions) and escalate through the retry ladder
  /// (Solver::SolveReliable) on deadlock, NaN/Inf or a bad residual.
  /// Coalesced launches verify each coalesced solution and re-run only the
  /// failing requests through the ladder. Off by default —
  /// DeterministicOptions' byte-identity contract needs the plain Solve call.
  bool reliable = false;
  /// Per-handle circuit breaker over device failures (IsDeviceFailure),
  /// disabled while breaker_threshold and breaker_window are both 0. The
  /// breaker_* fields map once onto a BreakerOptions (support/breaker.h
  /// documents the semantics) with no probe timeout: every probe reports
  /// through FinishRequest, because expired requests are filtered out before
  /// the breaker decides. breaker_threshold: consecutive failures that open.
  int breaker_threshold = 0;
  /// Dequeued requests fast-failed while open before one half-open probe is
  /// let through.
  int breaker_cooldown = 4;
  /// Open when the last `breaker_window` outcomes are all in and at least
  /// `breaker_rate` of them failed, which catches intermittent faults (e.g.
  /// a 1-in-3 dropped publish) that never produce `breaker_threshold`
  /// consecutive failures. 0 = window mode off.
  int breaker_window = 0;
  double breaker_rate = 0.5;
  /// Observer for terminal DEVICE-PATH outcomes, called once per served
  /// request with (handle, terminal status code) — exactly the signals the
  /// breaker sees: breaker-deflected requests are excluded, since they never
  /// reached the device. The fleet's sharded
  /// facade feeds each device's per-device health tracker through this.
  /// Called from worker threads; must be thread-safe and must not call back
  /// into the service.
  std::function<void(MatrixHandle, StatusCode)> outcome_listener{};
};

/// The breaker's failure set: the watchdog (kDeadlock) and failed
/// verification (kDataLoss). Every other terminal code, a plain OK included,
/// is evidence the device path works.
inline bool IsDeviceFailure(StatusCode code) {
  return code == StatusCode::kDeadlock || code == StatusCode::kDataLoss;
}

struct RequestOptions {
  /// Algorithm override; nullopt = the handle's memoized recommendation.
  std::optional<Algorithm> algorithm;
  /// Per-request deadline in wall-clock ms from submission; nullopt or
  /// <= 0 = none.
  std::optional<double> deadline_ms;
};

/// What the future resolves to. `status` carries solve-time errors
/// (deadline, deadlock, ...); admission errors are returned by Submit
/// directly and never produce a future.
struct ServeResult {
  Status status;
  SolveResult solve;
  Algorithm algorithm = Algorithm::kCapellini;
  /// Requests coalesced into the launch that served this one (1 = solo).
  int batch_size = 1;
  /// Wait from submission to the (single) dequeue timestamp of the group
  /// that served this request — solo and batched paths measure from the
  /// same stamp.
  double queue_wait_ms = 0.0;
  /// Monotone index of the dequeue (launch group) that served this request;
  /// tests assert scheduling order through it.
  std::uint64_t dequeue_seq = 0;
  /// The scheduler's cost estimate for this request at admission (ms).
  double est_cost_ms = 0.0;
  /// Reliable mode only (ServiceOptions::reliable): did the returned
  /// solution pass verification, what was its relative residual, and how
  /// many solve attempts (the original plus retries) it took. With reliable
  /// off, `verified` stays false and `residual` 0 — nothing was checked.
  bool verified = false;
  double residual = 0.0;
  int attempts = 1;
};

class SolveService {
 public:
  /// `registry` must outlive the service.
  SolveService(MatrixRegistry* registry, ServiceOptions options = {});
  /// Drains every accepted request (accepted work always completes), then
  /// joins the workers.
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Enqueues a solve of `handle`'s matrix against `b`. Fails fast with
  ///  * kNotFound          — unknown/evicted handle,
  ///  * kInvalidArgument   — b has the wrong length,
  ///  * kResourceExhausted — queue full or estimated queued cost over
  ///                         budget; the message carries a retry-after hint,
  ///  * kFailedPrecondition — service already shut down.
  /// Only admitted requests promote the handle in the registry LRU.
  Expected<std::future<ServeResult>> Submit(MatrixHandle handle,
                                            std::vector<Val> b,
                                            RequestOptions options = {});

  /// Applies a streaming update to a registered factor (see
  /// MatrixRegistry::ApplyDelta for semantics: epoch-bumped snapshot swap,
  /// in-flight solves finish on the pre-update epoch). The service layer
  /// adds accounting: every call records exactly one of RecordUpdate /
  /// RecordUpdateRejection in stats(). Fails with kFailedPrecondition after
  /// Shutdown (counted as a rejection), otherwise forwards the registry's
  /// status.
  Expected<UpdateReport> ApplyDelta(MatrixHandle handle,
                                    const update::DeltaBatch& batch);

  /// Releases workers when constructed with start_paused (no-op otherwise).
  void Start();

  /// Blocks until every accepted request has completed and stops the
  /// workers. Subsequent Submits fail with kFailedPrecondition. Idempotent.
  void Shutdown();

  /// Estimated milliseconds of solve work currently queued (the cost-based
  /// admission ledger).
  double QueuedCostMs() const;

  const ServiceStats& stats() const { return stats_; }
  const ServiceOptions& options() const { return options_; }
  MatrixRegistry* registry() const { return registry_; }

  /// workers=1, max_batch=1: byte-reproduces the serial one-shot path.
  static ServiceOptions DeterministicOptions();

 private:
  using Clock = std::chrono::steady_clock;
  struct Request {
    MatrixHandle handle = kInvalidHandle;
    MatrixRegistry::EntryRef entry;  // pinned at admission
    std::vector<Val> b;
    Algorithm algorithm = Algorithm::kCapellini;
    Clock::time_point enqueue_time;
    Clock::time_point deadline;  // time_point::max() = none
    double deadline_budget_ms = -1.0;  // < 0 = none (stats bucketing)
    double est_cost_ms = 0.0;          // admission ledger entry
    std::uint64_t seq = 0;             // arrival order (EDF tie-break)
    std::uint64_t dequeue_seq = 0;     // stamped by PopGroupLocked
    std::promise<ServeResult> promise;
  };

  void WorkerLoop();
  /// Inserts in scheduling order (kEdf: sorted by (deadline, seq); kFifo:
  /// tail). Returns true if the request landed ahead of queued work.
  bool EnqueueLocked(Request request);
  /// Pops the next group: the front request plus up to max_batch-1 more
  /// queued requests pinned to the same entry (handle + epoch) with the same
  /// algorithm (scanning the whole queue, not just the front — zipf traffic
  /// interleaves handles). Stamps dequeue_seq and releases the popped
  /// requests' cost from the admission ledger.
  std::vector<Request> PopGroupLocked();
  void ServeGroup(std::vector<Request> group);
  void ServeBatched(std::vector<Request>& group,
                    const MatrixRegistry::Entry& entry,
                    Clock::time_point dequeue_time);
  /// One request through Solve or the retry ladder (per options_.reliable).
  void ServeSolo(Request& request, const MatrixRegistry::Entry& entry,
                 Clock::time_point dequeue_time);
  /// The one Solver::SolveReliable call: runs `request` through the retry
  /// ladder and fills `result` with the verified solve, or kDataLoss when no
  /// rung verified. `spent_attempts` counts attempts already made for the
  /// request (a coalesced launch whose column is being rescued).
  void SolveThroughLadder(const Request& request,
                          const MatrixRegistry::Entry& entry,
                          int spent_attempts, ServeResult& result) const;
  /// Records stats + breaker outcome and resolves the promise — every
  /// non-expired terminal outcome funnels through here exactly once.
  void FinishRequest(Request& request, const MatrixRegistry::Entry& entry,
                     ServeResult result, int batch_size, bool report_breaker);
  /// Per-handle circuit breaker (support/breaker.h): one decision per
  /// dequeued group, one report per device-path outcome, both under
  /// breaker_mutex_ and driven by request counts — deterministic under
  /// DeterministicOptions.
  Breaker::Decision BreakerAdmit(MatrixHandle handle);
  void BreakerReport(MatrixHandle handle, StatusCode code);

  MatrixRegistry* registry_;
  ServiceOptions options_;
  ServiceStats stats_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  double queued_cost_ms_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_dequeue_seq_ = 0;
  bool paused_ = false;
  bool shutdown_ = false;

  // Breaker state is per handle and outlives entry eviction (a re-registered
  // handle id is new, so stale state cannot leak onto a different matrix).
  BreakerOptions breaker_options_;  // the flat breaker_* fields, mapped once
  mutable std::mutex breaker_mutex_;
  std::map<MatrixHandle, Breaker> breakers_;

  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::future<void>> worker_done_;
};

}  // namespace capellini::serve

// ServiceStats: per-handle and global observability for the solve service.
//
// Workers record one event per request (queue wait, solve latency, batch
// size, outcome) plus registry-level cache events; the accumulated counters
// render as a fixed-width table for operators and as JSON for CI artifacts.
// Percentiles are computed at dump time from retained samples — the service
// is a measurement harness, not a prod telemetry pipeline, so exact
// percentiles beat streaming sketches here.
//
// Accounting invariant: every submitted request hits the stats EXACTLY once
// with its terminal outcome — RecordRequest (ok / failed / expired) for
// requests that entered the queue, RecordRejection for admission refusals
// (queue full, cost bound, shutdown). serve_test asserts
//   requests + failures + deadline_misses + rejections == submitted.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "serve/registry.h"
#include "support/status.h"

namespace capellini::serve {

/// Exact percentiles over recorded samples (empty summary = all zeros).
struct LatencySummary {
  std::size_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};
LatencySummary Summarize(std::vector<double> samples_ms);

class ServiceStats {
 public:
  enum class Outcome {
    kOk,       // solved, future carries the solution
    kFailed,   // solve-time error (deadlock, kernel failure, ...)
    kExpired,  // deadline passed before a launch was burned
  };

  /// One terminal request outcome.
  struct RequestRecord {
    MatrixHandle handle = kInvalidHandle;
    std::string name;
    Outcome outcome = Outcome::kOk;
    /// Terminal status code; splits kFailed by reason (kDeadlock = watchdog,
    /// kDataLoss = failed verification, anything else = other).
    StatusCode code = StatusCode::kOk;
    /// Requests coalesced into the launch that served this one (1 = solo).
    int batch_size = 1;
    double queue_wait_ms = 0.0;
    double solve_ms = 0.0;  // ignored for kExpired (no launch happened)
    /// Deadline budget granted at submission; < 0 = no deadline. Drives the
    /// per-deadline-bucket miss rates.
    double deadline_budget_ms = -1.0;
    /// Scheduler cost estimate at admission (0 = none recorded). Compared
    /// against the observed solve_ms for the cost-model error metric.
    double est_cost_ms = 0.0;
  };
  void RecordRequest(const RequestRecord& record);

  /// One device launch that coalesced `batch_size` requests.
  void RecordBatch(int batch_size);
  /// One admission refusal (queue full, cost bound exceeded, shutdown).
  void RecordRejection();
  /// One EDF enqueue that landed ahead of at least one already-queued
  /// request (always zero under QueuePolicy::kFifo or deadline-free load).
  void RecordReorder();

  /// Circuit-breaker lifecycle events (see SolveService): a handle's breaker
  /// opened (or re-opened after a failed probe), a half-open probe ran, a
  /// request was fast-failed while open.
  void RecordBreakerOpen();
  void RecordBreakerProbe();
  /// A half-open probe came back with a device failure (the breaker
  /// re-opened). breaker_probes - breaker_probe_failures = successful
  /// re-admissions — the number the fleet's degraded-mode view wants.
  void RecordBreakerProbeFailure();
  void RecordBreakerShortCircuit();

  /// One streaming update (ApplyDelta) outcome. Same exactly-once contract
  /// as request accounting: every SolveService::ApplyDelta call records
  /// exactly one of RecordUpdate / RecordUpdateRejection, so
  ///   updates_value + updates_structural + update_rejections == calls
  /// (update_test pins this next to the PR-4 request invariant).
  void RecordUpdate(const UpdateReport& report, const std::string& name);
  void RecordUpdateRejection();

  /// Counter snapshot used by tests and the JSON dump.
  struct Totals {
    std::uint64_t requests = 0;   // completed OK
    std::uint64_t failures = 0;   // completed with non-OK Status (not rejects
                                  // and not deadline misses)
    std::uint64_t rejections = 0; // refused at admission (queue full, cost
                                  // bound, shutdown)
    std::uint64_t deadline_misses = 0;  // expired before service
    std::uint64_t batches = 0;    // device launches (one per coalesced group)
    std::uint64_t reorders = 0;   // EDF insertions ahead of queued work
    // Failure-reason split; failures == failures_deadlock + failures_verify
    // + failures_other (serve_test pins this alongside the exactly-once
    // invariant).
    std::uint64_t failures_deadlock = 0;  // kDeadlock (watchdog tripped)
    std::uint64_t failures_verify = 0;    // kDataLoss (failed verification)
    std::uint64_t failures_other = 0;     // any other non-OK terminal code
    // Circuit-breaker lifecycle.
    std::uint64_t breaker_opens = 0;
    std::uint64_t breaker_probes = 0;
    std::uint64_t breaker_probe_failures = 0;
    std::uint64_t breaker_short_circuits = 0;
    // Streaming updates (ApplyDelta): value-only updates keep the analysis,
    // structural updates re-leveled a cone of rows. One record per call:
    // updates_value + updates_structural + update_rejections == calls.
    std::uint64_t updates_value = 0;
    std::uint64_t updates_structural = 0;
    std::uint64_t update_rejections = 0;
    std::uint64_t update_rows_releveled = 0;  // summed cone sizes
    std::uint64_t update_delta_bytes = 0;     // summed batch log bytes
    /// Summed per-epoch incremental re-analysis time (UpdateReport::
    /// analysis_ms) — actual cone re-level + rebuild cost, NOT the original
    /// registration's full-analysis time. 0 contribution from value-only
    /// epochs, which reuse the analysis untouched.
    double update_analysis_ms = 0.0;
  };
  Totals totals() const;

  /// batch-occupancy histogram: index k-1 counts launches that coalesced
  /// exactly k requests.
  std::vector<std::uint64_t> BatchOccupancy() const;

  /// Deadline-budget bucket: all requests submitted with a deadline budget
  /// <= upper_ms (and above the previous bucket's bound), plus how many of
  /// them expired. Bucket bounds are kDeadlineBucketUpperMs; the last bucket
  /// is open-ended. Deadline-free requests are not bucketed.
  struct DeadlineBucket {
    double upper_ms = 0.0;
    std::uint64_t total = 0;
    std::uint64_t missed = 0;
  };
  static constexpr std::array<double, 4> kDeadlineBucketUpperMs = {
      5.0, 20.0, 100.0, 0.0};  // 0.0 = +inf sentinel for the last bucket
  std::vector<DeadlineBucket> DeadlineBuckets() const;

  /// Mean |estimated - actual| / actual over completed-OK requests that
  /// carried a cost estimate — the cost model's online error. 0 when no
  /// request carried one.
  double MeanCostErrorRatio() const;

  /// Renders global + per-handle tables; `registry` adds the cache columns.
  std::string ToTable(const RegistrySnapshot* registry = nullptr) const;
  std::string ToJson(const RegistrySnapshot* registry = nullptr) const;

 private:
  struct PerHandle {
    std::string name;
    std::uint64_t requests = 0;
    std::uint64_t failures = 0;
    std::uint64_t deadline_misses = 0;
    std::uint64_t batched_requests = 0;  // served in a batch of >= 2
    // Streaming-update counters (see RecordUpdate).
    std::uint64_t updates_value = 0;
    std::uint64_t updates_structural = 0;
    std::uint64_t update_rows_releveled = 0;
    std::uint64_t delta_log_bytes = 0;  // cumulative log, from the last report
    double update_analysis_ms = 0.0;    // summed per-epoch re-analysis time
    std::vector<double> queue_wait_ms;
    std::vector<double> solve_ms;
  };

  static std::size_t DeadlineBucketIndex(double deadline_budget_ms);

  mutable std::mutex mutex_;
  Totals totals_;
  std::vector<std::uint64_t> batch_occupancy_;  // index k-1 = batches of k
  std::map<MatrixHandle, PerHandle> per_handle_;
  std::vector<double> queue_wait_ms_;
  std::vector<double> solve_ms_;
  std::array<DeadlineBucket, kDeadlineBucketUpperMs.size()> deadline_buckets_{};
  double cost_error_ratio_sum_ = 0.0;
  std::uint64_t cost_error_samples_ = 0;
};

}  // namespace capellini::serve

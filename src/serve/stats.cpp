#include "serve/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/json.h"
#include "support/table.h"

namespace capellini::serve {
namespace {

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

LatencySummary Summarize(std::vector<double> samples_ms) {
  LatencySummary summary;
  if (samples_ms.empty()) return summary;
  std::sort(samples_ms.begin(), samples_ms.end());
  summary.count = samples_ms.size();
  double sum = 0.0;
  for (const double v : samples_ms) sum += v;
  summary.mean_ms = sum / static_cast<double>(samples_ms.size());
  summary.p50_ms = PercentileSorted(samples_ms, 50.0);
  summary.p90_ms = PercentileSorted(samples_ms, 90.0);
  summary.p99_ms = PercentileSorted(samples_ms, 99.0);
  summary.max_ms = samples_ms.back();
  return summary;
}

std::size_t ServiceStats::DeadlineBucketIndex(double deadline_budget_ms) {
  for (std::size_t i = 0; i + 1 < kDeadlineBucketUpperMs.size(); ++i) {
    if (deadline_budget_ms <= kDeadlineBucketUpperMs[i]) return i;
  }
  return kDeadlineBucketUpperMs.size() - 1;
}

void ServiceStats::RecordRequest(const RequestRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  PerHandle& ph = per_handle_[record.handle];
  if (ph.name.empty()) ph.name = record.name;
  switch (record.outcome) {
    case Outcome::kOk:
      ++totals_.requests;
      ++ph.requests;
      break;
    case Outcome::kFailed:
      ++totals_.failures;
      ++ph.failures;
      switch (record.code) {
        case StatusCode::kDeadlock:
          ++totals_.failures_deadlock;
          break;
        case StatusCode::kDataLoss:
          ++totals_.failures_verify;
          break;
        default:
          ++totals_.failures_other;
          break;
      }
      break;
    case Outcome::kExpired:
      ++totals_.deadline_misses;
      ++ph.deadline_misses;
      break;
  }
  if (record.batch_size >= 2) ++ph.batched_requests;
  // Queue wait is real for every terminal outcome; a solve latency only
  // exists when a launch actually ran.
  ph.queue_wait_ms.push_back(record.queue_wait_ms);
  queue_wait_ms_.push_back(record.queue_wait_ms);
  if (record.outcome != Outcome::kExpired) {
    ph.solve_ms.push_back(record.solve_ms);
    solve_ms_.push_back(record.solve_ms);
  }
  if (record.deadline_budget_ms >= 0.0) {
    DeadlineBucket& bucket =
        deadline_buckets_[DeadlineBucketIndex(record.deadline_budget_ms)];
    ++bucket.total;
    if (record.outcome == Outcome::kExpired) ++bucket.missed;
  }
  if (record.outcome == Outcome::kOk && record.est_cost_ms > 0.0 &&
      record.solve_ms > 0.0) {
    cost_error_ratio_sum_ +=
        std::abs(record.est_cost_ms - record.solve_ms) / record.solve_ms;
    ++cost_error_samples_;
  }
}

void ServiceStats::RecordBatch(int batch_size) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.batches;
  const auto k = static_cast<std::size_t>(batch_size);
  if (batch_occupancy_.size() < k) batch_occupancy_.resize(k, 0);
  ++batch_occupancy_[k - 1];
}

void ServiceStats::RecordRejection() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.rejections;
}

void ServiceStats::RecordReorder() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.reorders;
}

void ServiceStats::RecordBreakerOpen() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.breaker_opens;
}

void ServiceStats::RecordBreakerProbe() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.breaker_probes;
}

void ServiceStats::RecordBreakerProbeFailure() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.breaker_probe_failures;
}

void ServiceStats::RecordBreakerShortCircuit() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.breaker_short_circuits;
}

void ServiceStats::RecordUpdate(const UpdateReport& report,
                                const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  PerHandle& ph = per_handle_[report.handle];
  if (ph.name.empty()) ph.name = name;
  if (report.value_only) {
    ++totals_.updates_value;
    ++ph.updates_value;
  } else {
    ++totals_.updates_structural;
    ++ph.updates_structural;
  }
  totals_.update_rows_releveled +=
      static_cast<std::uint64_t>(report.rows_releveled);
  totals_.update_delta_bytes += report.delta_bytes;
  totals_.update_analysis_ms += report.analysis_ms;
  ph.update_rows_releveled += static_cast<std::uint64_t>(report.rows_releveled);
  ph.delta_log_bytes = report.delta_log_bytes;
  ph.update_analysis_ms += report.analysis_ms;
}

void ServiceStats::RecordUpdateRejection() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.update_rejections;
}

std::vector<ServiceStats::DeadlineBucket> ServiceStats::DeadlineBuckets()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<DeadlineBucket> buckets(deadline_buckets_.begin(),
                                      deadline_buckets_.end());
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i].upper_ms = kDeadlineBucketUpperMs[i];
  }
  return buckets;
}

double ServiceStats::MeanCostErrorRatio() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cost_error_samples_ == 0
             ? 0.0
             : cost_error_ratio_sum_ /
                   static_cast<double>(cost_error_samples_);
}

ServiceStats::Totals ServiceStats::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totals_;
}

std::vector<std::uint64_t> ServiceStats::BatchOccupancy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return batch_occupancy_;
}

std::string ServiceStats::ToTable(const RegistrySnapshot* registry) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;

  const LatencySummary wait = Summarize(queue_wait_ms_);
  const LatencySummary solve = Summarize(solve_ms_);
  TextTable global({"Requests", "Failures", "Rejected", "Deadline", "Batches",
                    "Reorders", "Wait p50/p99 ms", "Solve p50/p99 ms"});
  global.SetTitle("service totals");
  global.AddRow({std::to_string(totals_.requests),
                 std::to_string(totals_.failures),
                 std::to_string(totals_.rejections),
                 std::to_string(totals_.deadline_misses),
                 std::to_string(totals_.batches),
                 std::to_string(totals_.reorders),
                 TextTable::Num(wait.p50_ms, 3) + " / " +
                     TextTable::Num(wait.p99_ms, 3),
                 TextTable::Num(solve.p50_ms, 3) + " / " +
                     TextTable::Num(solve.p99_ms, 3)});
  out << global.ToString();

  if (totals_.failures > 0) {
    char line[112];
    std::snprintf(line, sizeof line,
                  "failure reasons: deadlock=%llu verify=%llu other=%llu\n",
                  static_cast<unsigned long long>(totals_.failures_deadlock),
                  static_cast<unsigned long long>(totals_.failures_verify),
                  static_cast<unsigned long long>(totals_.failures_other));
    out << line;
  }
  if (totals_.breaker_opens + totals_.breaker_probes +
          totals_.breaker_short_circuits >
      0) {
    char line[144];
    std::snprintf(
        line, sizeof line,
        "circuit breaker: opens=%llu probes=%llu probe_failures=%llu "
        "short_circuits=%llu\n",
        static_cast<unsigned long long>(totals_.breaker_opens),
        static_cast<unsigned long long>(totals_.breaker_probes),
        static_cast<unsigned long long>(totals_.breaker_probe_failures),
        static_cast<unsigned long long>(totals_.breaker_short_circuits));
    out << line;
  }

  if (totals_.updates_value + totals_.updates_structural +
          totals_.update_rejections >
      0) {
    char line[160];
    std::snprintf(
        line, sizeof line,
        "streaming updates: value_only=%llu structural=%llu rejected=%llu "
        "rows_releveled=%llu delta_bytes=%llu relevel_ms=%.3f\n",
        static_cast<unsigned long long>(totals_.updates_value),
        static_cast<unsigned long long>(totals_.updates_structural),
        static_cast<unsigned long long>(totals_.update_rejections),
        static_cast<unsigned long long>(totals_.update_rows_releveled),
        static_cast<unsigned long long>(totals_.update_delta_bytes),
        totals_.update_analysis_ms);
    out << line;
  }

  if (cost_error_samples_ > 0) {
    char line[96];
    std::snprintf(line, sizeof line,
                  "cost model: mean |est-actual|/actual = %.3f over %llu "
                  "solves\n",
                  cost_error_ratio_sum_ /
                      static_cast<double>(cost_error_samples_),
                  static_cast<unsigned long long>(cost_error_samples_));
    out << line;
  }
  bool any_bucket = false;
  for (const DeadlineBucket& bucket : deadline_buckets_) {
    if (bucket.total != 0) any_bucket = true;
  }
  if (any_bucket) {
    out << "deadline-budget buckets (miss rate):\n";
    for (std::size_t i = 0; i < deadline_buckets_.size(); ++i) {
      const DeadlineBucket& bucket = deadline_buckets_[i];
      if (bucket.total == 0) continue;
      char line[96];
      if (kDeadlineBucketUpperMs[i] > 0.0) {
        std::snprintf(line, sizeof line, "  <= %6.1f ms: %llu/%llu (%.1f%%)\n",
                      kDeadlineBucketUpperMs[i],
                      static_cast<unsigned long long>(bucket.missed),
                      static_cast<unsigned long long>(bucket.total),
                      100.0 * static_cast<double>(bucket.missed) /
                          static_cast<double>(bucket.total));
      } else {
        std::snprintf(line, sizeof line, "  >  100.0 ms: %llu/%llu (%.1f%%)\n",
                      static_cast<unsigned long long>(bucket.missed),
                      static_cast<unsigned long long>(bucket.total),
                      100.0 * static_cast<double>(bucket.missed) /
                          static_cast<double>(bucket.total));
      }
      out << line;
    }
  }

  if (!batch_occupancy_.empty()) {
    out << "batch occupancy (k requests per launch):\n";
    for (std::size_t k = 0; k < batch_occupancy_.size(); ++k) {
      if (batch_occupancy_[k] == 0) continue;
      out << "  k=" << (k + 1) << ": " << batch_occupancy_[k] << " launch"
          << (batch_occupancy_[k] == 1 ? "" : "es") << "\n";
    }
  }

  if (!per_handle_.empty()) {
    TextTable table({"Handle", "Matrix", "Requests", "Failures", "Batched",
                     "Upd v/s", "Releveled", "Relevel ms", "Log bytes",
                     "Wait p50 ms", "Solve p50 ms"});
    table.SetTitle("per-handle");
    for (const auto& [handle, ph] : per_handle_) {
      table.AddRow({std::to_string(handle), ph.name,
                    std::to_string(ph.requests), std::to_string(ph.failures),
                    std::to_string(ph.batched_requests),
                    std::to_string(ph.updates_value) + "/" +
                        std::to_string(ph.updates_structural),
                    std::to_string(ph.update_rows_releveled),
                    TextTable::Num(ph.update_analysis_ms, 3),
                    std::to_string(ph.delta_log_bytes),
                    TextTable::Num(Summarize(ph.queue_wait_ms).p50_ms, 3),
                    TextTable::Num(Summarize(ph.solve_ms).p50_ms, 3)});
    }
    out << table.ToString();
  }

  if (registry != nullptr) {
    TextTable cache({"Registered", "Resident", "Bytes", "Hits", "Misses",
                     "Evictions", "Updates", "Anl warm/cold"});
    cache.SetTitle("registry cache");
    cache.AddRow({std::to_string(registry->registrations),
                  std::to_string(registry->resident_entries),
                  std::to_string(registry->resident_bytes),
                  std::to_string(registry->hits),
                  std::to_string(registry->misses),
                  std::to_string(registry->evictions),
                  std::to_string(registry->updates),
                  std::to_string(registry->analysis_cache_hits) + "/" +
                      std::to_string(registry->analysis_cache_misses)});
    out << cache.ToString();
  }
  return out.str();
}

std::string ServiceStats::ToJson(const RegistrySnapshot* registry) const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter json;
  json.BeginObject()
      .Key("requests").Int(totals_.requests)
      .Key("failures").Int(totals_.failures)
      .Key("rejections").Int(totals_.rejections)
      .Key("deadline_misses").Int(totals_.deadline_misses)
      .Key("batches").Int(totals_.batches)
      .Key("reorders").Int(totals_.reorders)
      .Key("failures_deadlock").Int(totals_.failures_deadlock)
      .Key("failures_verify").Int(totals_.failures_verify)
      .Key("failures_other").Int(totals_.failures_other)
      .Key("breaker_opens").Int(totals_.breaker_opens)
      .Key("breaker_probes").Int(totals_.breaker_probes)
      .Key("breaker_probe_failures").Int(totals_.breaker_probe_failures)
      .Key("breaker_short_circuits").Int(totals_.breaker_short_circuits)
      .Key("updates_value").Int(totals_.updates_value)
      .Key("updates_structural").Int(totals_.updates_structural)
      .Key("update_rejections").Int(totals_.update_rejections)
      .Key("update_rows_releveled").Int(totals_.update_rows_releveled)
      .Key("update_delta_bytes").Int(totals_.update_delta_bytes)
      .Key("update_analysis_ms").Double(totals_.update_analysis_ms)
      .Key("cost_error_ratio")
      .Double(cost_error_samples_ == 0
                  ? 0.0
                  : cost_error_ratio_sum_ /
                        static_cast<double>(cost_error_samples_))
      .Key("deadline_buckets").BeginArray();
  for (std::size_t i = 0; i < deadline_buckets_.size(); ++i) {
    json.BeginObject()
        .Key("upper_ms").Double(kDeadlineBucketUpperMs[i])
        .Key("total").Int(deadline_buckets_[i].total)
        .Key("missed").Int(deadline_buckets_[i].missed)
        .EndObject();
  }
  json.EndArray().Key("batch_occupancy").BeginArray();
  for (const std::uint64_t count : batch_occupancy_) json.Int(count);
  json.EndArray();
  const auto latency = [&json](const char* key,
                                const std::vector<double>& samples_ms) {
    const LatencySummary s = Summarize(samples_ms);
    json.Key(key).BeginObject()
        .Key("count").Int(s.count)
        .Key("mean_ms").Double(s.mean_ms)
        .Key("p50_ms").Double(s.p50_ms)
        .Key("p90_ms").Double(s.p90_ms)
        .Key("p99_ms").Double(s.p99_ms)
        .Key("max_ms").Double(s.max_ms)
        .EndObject();
  };
  latency("queue_wait", queue_wait_ms_);
  latency("solve", solve_ms_);
  if (registry != nullptr) {
    json.Key("registry").BeginObject()
        .Key("registrations").Int(registry->registrations)
        .Key("resident_entries").Int(registry->resident_entries)
        .Key("resident_bytes").Int(registry->resident_bytes)
        .Key("hits").Int(registry->hits)
        .Key("misses").Int(registry->misses)
        .Key("evictions").Int(registry->evictions)
        .Key("updates").Int(registry->updates)
        .Key("analysis_cache_hits").Int(registry->analysis_cache_hits)
        .Key("analysis_cache_misses").Int(registry->analysis_cache_misses)
        .EndObject();
  }
  json.Key("per_handle").BeginArray();
  for (const auto& [handle, ph] : per_handle_) {
    json.BeginObject()
        .Key("handle").Int(handle)
        .Key("name").String(ph.name)
        .Key("requests").Int(ph.requests)
        .Key("failures").Int(ph.failures)
        .Key("batched_requests").Int(ph.batched_requests)
        .Key("updates_value").Int(ph.updates_value)
        .Key("updates_structural").Int(ph.updates_structural)
        .Key("rows_releveled").Int(ph.update_rows_releveled)
        .Key("update_analysis_ms").Double(ph.update_analysis_ms)
        .Key("delta_log_bytes").Int(ph.delta_log_bytes)
        .EndObject();
  }
  json.EndArray().EndObject();
  return std::move(json).str();
}

}  // namespace capellini::serve

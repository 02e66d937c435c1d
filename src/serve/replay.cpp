#include "serve/replay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "matrix/triangular.h"
#include "support/json.h"
#include "support/rng.h"
#include "update/delta.h"

namespace capellini::serve {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

}  // namespace

std::uint64_t HashBytes(std::uint64_t hash, const void* data,
                        std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

RequestTrace GenerateZipfTrace(int num_requests, int num_matrices, double s,
                               std::uint64_t seed) {
  CAPELLINI_CHECK_MSG(num_requests >= 0 && num_matrices >= 1,
                      "trace needs at least one matrix");
  Rng rng(seed);

  // CDF over ranks 1..M with P(rank r) ~ 1 / r^s.
  std::vector<double> cdf(static_cast<std::size_t>(num_matrices));
  double total = 0.0;
  for (int r = 0; r < num_matrices; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[static_cast<std::size_t>(r)] = total;
  }
  for (double& v : cdf) v /= total;

  // Shuffle which matrix gets which popularity rank (Fisher-Yates).
  std::vector<int> rank_to_matrix(static_cast<std::size_t>(num_matrices));
  for (int i = 0; i < num_matrices; ++i) {
    rank_to_matrix[static_cast<std::size_t>(i)] = i;
  }
  for (int i = num_matrices - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.NextBounded(static_cast<std::uint64_t>(i + 1)));
    std::swap(rank_to_matrix[static_cast<std::size_t>(i)], rank_to_matrix[j]);
  }

  RequestTrace trace;
  trace.requests.reserve(static_cast<std::size_t>(num_requests));
  for (int i = 0; i < num_requests; ++i) {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const auto rank = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf.begin(),
                                 static_cast<std::ptrdiff_t>(cdf.size()) - 1));
    TraceRequest request;
    request.matrix = rank_to_matrix[rank];
    request.seed = rng.Next() | 1u;
    trace.requests.push_back(request);
  }
  return trace;
}

void AssignDeadlines(RequestTrace& trace, double min_ms, double max_ms,
                     std::uint64_t seed) {
  CAPELLINI_CHECK_MSG(min_ms > 0.0 && max_ms >= min_ms,
                      "deadlines need 0 < min_ms <= max_ms");
  Rng rng(seed);
  for (TraceRequest& request : trace.requests) {
    if (request.kind != TraceEventKind::kSolve) continue;
    request.deadline_ms = rng.NextDouble(min_ms, max_ms);
  }
}

void InterleaveUpdates(RequestTrace& trace, double update_fraction,
                       int deltas_per_update, double structural_fraction,
                       std::uint64_t seed) {
  if (update_fraction <= 0.0 || deltas_per_update <= 0) return;
  Rng rng(seed ^ 0x5747ea3u);
  std::vector<TraceRequest> mixed;
  mixed.reserve(trace.requests.size());
  for (const TraceRequest& request : trace.requests) {
    mixed.push_back(request);
    if (request.kind != TraceEventKind::kSolve) continue;
    if (!rng.NextBool(update_fraction)) continue;
    TraceRequest update;
    update.kind = TraceEventKind::kUpdate;
    update.matrix = request.matrix;  // updates track traffic popularity
    update.seed = rng.Next() | 1u;
    update.update_deltas = deltas_per_update;
    update.structural = rng.NextBool(structural_fraction);
    mixed.push_back(update);
  }
  trace.requests = std::move(mixed);
}

Status WriteTraceJson(const RequestTrace& trace, const std::string& path) {
  JsonWriter json;
  json.BeginObject().Key("requests").BeginArray();
  for (const TraceRequest& r : trace.requests) {
    json.BeginObject().Key("matrix").Int(r.matrix).Key("seed").Int(r.seed);
    if (r.kind == TraceEventKind::kUpdate) {
      json.Key("update_deltas").Int(r.update_deltas);
      json.Key("structural").Int(r.structural ? 1 : 0);
    } else if (r.deadline_ms > 0.0) {
      json.Key("deadline_ms").Double(r.deadline_ms);
    }
    json.EndObject();
  }
  json.EndArray().EndObject();
  return WriteFile(path, json.str());
}

Expected<RequestTrace> ReadTraceJson(const std::string& path) {
  auto doc = ReadJsonFile(path);
  if (!doc.ok()) return doc.status();
  const JsonValue* requests = doc->Find("requests");
  if (requests == nullptr || requests->kind != JsonValue::Kind::kArray) {
    return IoError(path + ": no \"requests\" array");
  }
  RequestTrace trace;
  for (std::size_t i = 0; i < requests->items.size(); ++i) {
    const JsonValue& record = requests->items[i];
    const auto bad = [&](const char* key) {
      return IoError(path + ": request " + std::to_string(i) +
                     ": missing or malformed \"" + key + "\"");
    };
    // Reads `key` into `out`; an absent optional key leaves `out` as it is.
    const auto read = [&](const char* key, auto& out, bool required) {
      const JsonValue* value = record.Find(key);
      if (value == nullptr ? !required : value->Get(out)) return Status::Ok();
      return bad(key);
    };
    TraceRequest request;
    int structural = 0;
    CAPELLINI_RETURN_IF_ERROR(read("matrix", request.matrix, true));
    CAPELLINI_RETURN_IF_ERROR(read("seed", request.seed, true));
    CAPELLINI_RETURN_IF_ERROR(read("deadline_ms", request.deadline_ms, false));
    CAPELLINI_RETURN_IF_ERROR(
        read("update_deltas", request.update_deltas, false));
    CAPELLINI_RETURN_IF_ERROR(read("structural", structural, false));
    if (request.matrix < 0) return bad("matrix");
    if (request.update_deltas < 0) return bad("update_deltas");
    if (request.update_deltas > 0) {
      request.kind = TraceEventKind::kUpdate;
      request.structural = structural != 0;
    }
    trace.requests.push_back(request);
  }
  return trace;
}

Expected<ReplayReport> ReplayTrace(SolveService& service,
                                   const std::vector<MatrixHandle>& handles,
                                   const RequestTrace& trace,
                                   const ReplayOptions& options) {
  if (handles.empty()) return InvalidArgument("no handles to replay against");

  struct Pending {
    std::future<ServeResult> future;
    std::vector<Val> x_true;
  };

  ReplayReport report;
  std::vector<Pending> pending;
  pending.reserve(trace.requests.size());

  // Queue-full and evicted-handle submissions are both counted as
  // rejections: under a byte budget a cold factor can be LRU-evicted while
  // its trace requests are still in flight, and a serving client would
  // re-register and retry — the replay just records the drop.
  const auto is_rejection = [](const Status& status) {
    return status.code() == StatusCode::kResourceExhausted ||
           status.code() == StatusCode::kNotFound;
  };

  const Clock::time_point submit_begin = Clock::now();
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const TraceRequest& request = trace.requests[i];
    if (options.pace_requests_per_sec > 0.0) {
      // Open-loop arrivals: request i is offered at i / rate regardless of
      // how the service is keeping up — exactly the overload regime the
      // admission control is for.
      std::this_thread::sleep_until(
          submit_begin + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 static_cast<double>(i) /
                                 options.pace_requests_per_sec)));
    }
    const MatrixHandle handle =
        handles[static_cast<std::size_t>(request.matrix) % handles.size()];
    // Peek: manufacturing the right-hand side (or drawing the delta batch)
    // is client-side work and must not touch the LRU — only admitted
    // operations promote.
    auto entry = service.registry()->Peek(handle);
    if (!entry.ok()) {
      if (is_rejection(entry.status())) {
        if (request.kind == TraceEventKind::kUpdate) {
          ++report.updates_rejected;
        } else {
          ++report.submitted;
          ++report.rejected;
        }
        continue;
      }
      return entry.status();
    }
    if (request.kind == TraceEventKind::kUpdate) {
      // Apply inline: solves admitted before this point pinned the old
      // epoch and stay verifiable against the x_true they were built from;
      // solves submitted after see the mutated matrix. No barrier needed —
      // that is the snapshot contract under test.
      const update::DeltaBatch batch = update::MakeRandomBatch(
          (*entry)->solver.matrix(), request.update_deltas, request.structural,
          request.seed);
      auto applied = service.ApplyDelta(handle, batch);
      if (!applied.ok()) {
        if (is_rejection(applied.status())) {
          ++report.updates_rejected;
          continue;
        }
        return applied.status();
      }
      ++report.updates;
      report.rows_releveled +=
          static_cast<std::uint64_t>(applied->rows_releveled);
      continue;
    }
    const ReferenceProblem problem =
        MakeReferenceProblem((*entry)->solver.matrix(), request.seed);
    ++report.submitted;
    RequestOptions request_options;
    if (request.deadline_ms > 0.0) {
      request_options.deadline_ms = request.deadline_ms;
    }
    auto submitted = service.Submit(handle, problem.b, request_options);
    if (!submitted.ok()) {
      if (is_rejection(submitted.status())) {
        ++report.rejected;
        continue;
      }
      return submitted.status();
    }
    pending.push_back(Pending{std::move(*submitted),
                              options.verify ? problem.x_true
                                             : std::vector<Val>{}});
  }

  // With preload the queue was filled while the workers were paused; the
  // measured wall clock is the drain alone (the batching-limited regime).
  const Clock::time_point drain_begin =
      options.preload ? Clock::now() : submit_begin;
  if (options.preload) service.Start();

  std::uint64_t checksum = kFnvSeed;
  for (Pending& p : pending) {
    ServeResult result = p.future.get();
    if (!result.status.ok()) {
      if (result.status.code() == StatusCode::kDeadlineExceeded) {
        ++report.expired;
      } else {
        ++report.failed;
      }
      continue;
    }
    ++report.completed;
    checksum = HashBytes(checksum, result.solve.x.data(),
                         result.solve.x.size() * sizeof(Val));
    if (options.verify &&
        MaxRelativeError(result.solve.x, p.x_true) > 1e-8) {
      ++report.wrong;
    }
  }
  const Clock::time_point end = Clock::now();
  report.wall_ms = ElapsedMs(drain_begin, end);
  report.solution_checksum = checksum;
  const double seconds = report.wall_ms / 1e3;
  if (seconds > 0.0) {
    report.requests_per_sec =
        static_cast<double>(report.completed) / seconds;
  }
  return report;
}

}  // namespace capellini::serve

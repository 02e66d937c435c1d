// Request traces for the solve service: generate a zipf-distributed workload
// over a matrix corpus, persist it as JSON, and replay it through a
// SolveService while verifying every solution.
//
// Zipf popularity is the serving-realistic shape: a few hot factors take
// most of the solve traffic (they batch well and stay cache-resident), a
// long tail of cold ones churns the LRU. The trace is fully deterministic —
// bench_serve's determinism gate replays the same trace through the service
// and through a serial one-shot loop and checksums the solutions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gen/proxies.h"
#include "serve/service.h"
#include "support/status.h"

namespace capellini::serve {

enum class TraceEventKind {
  kSolve,   // submit one solve against the matrix
  kUpdate,  // apply one DeltaBatch to the matrix (streaming factors)
};

struct TraceRequest {
  TraceEventKind kind = TraceEventKind::kSolve;
  /// Index into the corpus / handle list the trace is replayed against.
  int matrix = 0;
  /// kSolve: seed for the manufactured right-hand side (b = L * x_true).
  /// kUpdate: seed for update::MakeRandomBatch against the handle's current
  /// matrix — the batch is a pure function of (matrix at apply time, seed),
  /// so a replay and its serial baseline mutate identically.
  std::uint64_t seed = 0;
  /// Per-request deadline in wall-clock ms from submission (0 = none;
  /// kSolve only).
  double deadline_ms = 0.0;
  /// kUpdate only: batch size and kind.
  int update_deltas = 0;
  bool structural = false;
};

struct RequestTrace {
  std::vector<TraceRequest> requests;
};

/// Draws `num_requests` requests whose matrix popularity follows a zipf law
/// with exponent `s` over `num_matrices` ranks (rank order is shuffled by
/// `seed` so matrix 0 is not always the hot one).
RequestTrace GenerateZipfTrace(int num_requests, int num_matrices, double s,
                               std::uint64_t seed);

/// Stamps every request with a deterministic uniform-random deadline in
/// [min_ms, max_ms] — the mixed-deadline workload the EDF scheduler and the
/// bench_serve overload sweep exercise.
void AssignDeadlines(RequestTrace& trace, double min_ms, double max_ms,
                     std::uint64_t seed);

/// Interleaves update events into `trace`: after each solve request, with
/// probability `update_fraction`, an update event targeting the SAME matrix
/// is inserted (hot factors get updated in proportion to their traffic —
/// the worst case for snapshot churn). Each update carries
/// `deltas_per_update` deltas and is structural with probability
/// `structural_fraction`. Deterministic in `seed`.
void InterleaveUpdates(RequestTrace& trace, double update_fraction,
                       int deltas_per_update, double structural_fraction,
                       std::uint64_t seed);

/// {"requests":[{"matrix":3,"seed":17,"deadline_ms":12.5},...]}; update
/// events carry "update_deltas" (> 0) and "structural" (0/1) instead of
/// "deadline_ms". Every record needs "matrix" >= 0 and "seed"; a read error
/// names the record's index. Values round-trip exactly (support/json.h).
Status WriteTraceJson(const RequestTrace& trace, const std::string& path);
Expected<RequestTrace> ReadTraceJson(const std::string& path);

struct ReplayReport {
  std::size_t submitted = 0;
  std::size_t completed = 0;   // future resolved with OK status
  std::size_t rejected = 0;    // admission-control rejections
  std::size_t expired = 0;     // kDeadlineExceeded ServeResults
  std::size_t failed = 0;      // other non-OK ServeResults
  std::size_t wrong = 0;       // solution off the reference by > 1e-8
  // Update events (kUpdate): applied epoch swaps vs refused/failed applies
  // (evicted handle, over-budget entry). Solve counters above never include
  // update events.
  std::size_t updates = 0;
  std::size_t updates_rejected = 0;
  std::uint64_t rows_releveled = 0;  // summed over applied updates
  double wall_ms = 0.0;
  double requests_per_sec = 0.0;
  /// FNV-1a over every completed solution in submission order — the
  /// determinism-mode fingerprint.
  std::uint64_t solution_checksum = 0;
};

struct ReplayOptions {
  /// Load the whole trace before the workers start (needs
  /// ServiceOptions::start_paused and max_queue >= trace size). Maximizes
  /// coalescing; the wall clock covers only the drain.
  bool preload = false;
  /// Verify each solution against the serially solved reference.
  bool verify = true;
  /// Pace submissions at this offered rate against live workers (0 = submit
  /// as fast as possible). Mutually exclusive with preload — pacing models
  /// an open-loop arrival process, which is how the overload sweep drives
  /// the service past capacity.
  double pace_requests_per_sec = 0.0;
};

/// Replays `trace` through `service`: request i targets handles[matrix % n].
/// Right-hand sides are manufactured per request from the trace seed.
/// Rejected submissions are counted, not retried.
Expected<ReplayReport> ReplayTrace(SolveService& service,
                                   const std::vector<MatrixHandle>& handles,
                                   const RequestTrace& trace,
                                   const ReplayOptions& options = {});

/// FNV-1a helper shared with bench_serve's one-shot baseline.
std::uint64_t HashBytes(std::uint64_t hash, const void* data,
                        std::size_t size);
inline constexpr std::uint64_t kFnvSeed = 1469598103934665603ull;

}  // namespace capellini::serve

// Public facade of the library: analyze a lower-triangular system once, then
// solve it with any of the paper's algorithms — on the simulated GPU or on
// host threads — and get back the solution plus the paper's metrics.
//
// Quickstart:
//   capellini::Solver solver(std::move(lower_triangular_csr));
//   auto result = solver.Solve(capellini::Algorithm::kCapellini, b);
//   if (result.ok()) use(result->x, result->gflops);
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "graph/levels.h"
#include "graph/stats.h"
#include "kernels/launch.h"
#include "matrix/csr.h"
#include "sim/config.h"
#include "support/status.h"

namespace capellini {

struct Analysis;         // core/analysis.h
struct ReliableOptions;  // core/verify.h
struct ReliableResult;   // core/verify.h

/// All solve strategies exposed by the library.
enum class Algorithm {
  // Host (real CPU execution).
  kSerialCpu,
  kLevelSetCpu,
  kSyncFreeCpu,
  // Simulated device (paper algorithms; metrics are modeled).
  kLevelSet,
  kSyncFree,        // Liu et al. CSC baseline [20]
  kSyncFreeCsr,     // Algorithm 3 as printed
  kCusparse,        // black-box proxy
  kCapelliniTwoPhase,
  kCapellini,       // Writing-First (Algorithm 5) — the headline method
  kHybrid,          // §4.4
  kCapelliniNaive,  // deadlocking strawman (§3.3 Challenge 1) — exposed so
                    // reliability tests/benches can trip the watchdog on
                    // demand; never recommended, never in a retry ladder
};

const char* AlgorithmName(Algorithm algorithm);
bool IsDeviceAlgorithm(Algorithm algorithm);

/// Unified solve result. Device metrics are zero for host algorithms
/// (host algorithms report wall-clock solve_ms instead).
struct SolveResult {
  std::vector<Val> x;
  double solve_ms = 0.0;          // simulated (device) or measured (host)
  double preprocessing_ms = 0.0;  // host-measured for both
  double gflops = 0.0;
  double bandwidth_gbs = 0.0;     // device only
  sim::LaunchStats device_stats;  // device only
};

struct SolverOptions {
  sim::DeviceConfig device = sim::PascalGtx1080();
  kernels::SolveOptions kernel_options{};
  int host_threads = 0;  // 0 = hardware concurrency
};

/// One-shot solve of an UPPER-triangular system U x = b (the backward-
/// substitution half of direct methods): maps the system onto an equivalent
/// lower-triangular one by index reversal (see matrix/triangular.h), solves
/// with `algorithm`, and un-reverses the solution. `upper` must satisfy
/// IsUpperTriangularWithDiagonal().
Expected<SolveResult> SolveUpperSystem(const Csr& upper,
                                       std::span<const Val> b,
                                       Algorithm algorithm,
                                       const SolverOptions& options = {});

class Solver {
 public:
  /// Takes ownership of the matrix. Aborts if it is not lower-triangular
  /// with a full diagonal (use ExtractLowerTriangular first).
  explicit Solver(Csr lower, SolverOptions options = {});
  ~Solver();

  Solver(Solver&&) = delete;
  Solver& operator=(Solver&&) = delete;

  const Csr& matrix() const { return lower_; }
  const SolverOptions& options() const { return options_; }

  /// Full structural analysis (levels, alpha/beta/delta, row-length
  /// histogram, Figure-6 recommendation). Computed on first use — guarded by
  /// a std::once_flag, so one Solver can be handed to many concurrent
  /// readers (the serve registry does exactly that) and the analysis is
  /// still computed exactly once.
  const Analysis& analysis() const;

  /// True once analysis() has run (i.e. further calls are cache hits).
  bool analyzed() const { return analyzed_.load(std::memory_order_acquire); }

  /// Installs a precomputed analysis instead of running Analyze() on first
  /// use — the streaming-update path (src/update) patches the previous
  /// entry's analysis incrementally and seeds the replacement Solver with
  /// it. The caller vouches that `analysis` describes matrix(). Same
  /// once-flag as analysis(): if analysis already ran this is a no-op, so
  /// seeding can never replace an analysis a reader is holding.
  void SeedAnalysis(Analysis analysis) const;

  /// Structural indicators (levels, alpha/beta/delta). Views into the
  /// memoized analysis(); the level sets are reused by the level-set
  /// algorithms.
  const MatrixStats& Stats() const;
  const LevelSets& Levels() const;

  /// Solves lower * x = b.
  Expected<SolveResult> Solve(Algorithm algorithm,
                              std::span<const Val> b) const;

  /// Self-healing solve (core/verify.h): solves with `algorithm`, verifies
  /// the solution (NaN/Inf guard + relative residual), and on any failure —
  /// bad residual, non-finite values, or a solve-time error like kDeadlock —
  /// escalates through a bounded retry ladder ending at the host serial
  /// solver, recording every attempt. Returns a Status only when no rung
  /// produced a solution at all; an unverifiable final solution comes back
  /// with ReliableResult::verified == false for the caller to map to
  /// kDataLoss.
  Expected<ReliableResult> SolveReliable(Algorithm algorithm,
                                         std::span<const Val> b) const;
  Expected<ReliableResult> SolveReliable(Algorithm algorithm,
                                         std::span<const Val> b,
                                         const ReliableOptions& options) const;

  /// Figure-6 style recommendation: Capellini for high parallel granularity,
  /// SyncFree otherwise (see core/select.h for the rule).
  Algorithm Recommend() const;

  /// Deterministic a-priori estimate of one solve's host cost in
  /// milliseconds, derived from the memoized analysis (rows, nnz, level
  /// count, Eq.-1 parallel granularity). It is a scheduling hint, not a
  /// prediction: the serve layer seeds its per-handle cost model from it and
  /// corrects online from observed solve times.
  double CostHintMs() const;

 private:
  Csr lower_;
  SolverOptions options_;
  mutable std::once_flag analysis_once_;
  mutable std::unique_ptr<const Analysis> analysis_;
  mutable std::atomic<bool> analyzed_{false};
};

}  // namespace capellini

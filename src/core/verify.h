// Post-solve verification and the self-healing solve pipeline.
//
// The simulated device can now fail the way real GPUs fail (sim/fault.h):
// a solve may deadlock, or — worse — complete with a silently corrupted
// solution. VerifySolution is the cheap detector: a NaN/Inf guard plus the
// relative infinity-norm residual
//
//     ||L x - b||_inf / (||L||_inf ||x||_inf + ||b||_inf)
//
// against a configurable bound. It is one matrix-vector pass and one read
// each of x and b (norm and finiteness together) — small next to any solve
// that walked the same nonzeros with spin-waits in the loop (bench_faults
// reports the measured overhead). The host serial solve needs no pass of
// its own: SolveSerialVerified folds each row's residual in right after
// writing that row's x, while the row is still in cache, and then reads x
// and b once each.
//
// Solver::SolveReliable builds the recovery policy on top: verify after
// every solve, and on failure (bad residual, non-finite values, or a
// solve-time error such as kDeadlock) escalate through a bounded retry
// ladder — by default  first algorithm -> kCapelliniTwoPhase -> kLevelSet ->
// kSerialCpu. The host serial rung is immune to device faults, so the
// ladder structurally guarantees a solution; every attempt is recorded so
// callers (the serve layer, bench_faults) can see the recovery path.
// Determinism: with a seeded FaultInjector, same seed => same faults =>
// same attempt sequence.
#pragma once

#include <span>
#include <vector>

#include "core/solver.h"

namespace capellini {

struct VerifyOptions {
  /// Accept when the relative residual is at or below this bound. The
  /// interpreter does exact IEEE double arithmetic, so clean solves land
  /// many orders of magnitude under the default; an injected exponent-bit
  /// flip lands many orders above it.
  double residual_bound = 1e-8;
};

struct Verification {
  /// Every component of x in the checked rows is finite (no NaN/Inf).
  bool finite = false;
  /// Relative infinity-norm residual; +inf when x or b is non-finite in the
  /// checked rows, ||x||_inf or ||b||_inf is infinite, or a row residual
  /// overflows.
  double residual = 0.0;
  /// residual <= bound (never true when residual is +inf).
  bool passed = false;
};

/// Verifies x against lower * x = b. `lower` must be the solver's matrix;
/// sizes are the caller's contract (checked).
Verification VerifySolution(const Csr& lower, std::span<const Val> b,
                            std::span<const Val> x,
                            const VerifyOptions& options = {});

/// Verifies only the rows [row_begin, row_end) of lower * x = b: the
/// residual and norms are taken over that row block, but x is the FULL
/// vector — block rows reference columns below row_begin, so the check is
/// "is this partition consistent with the solution it consumed". The fleet's
/// failover path uses it to accept or reject one recovered partition at a
/// time without paying a whole-matrix pass per ladder rung. With
/// row_begin = 0 and row_end = rows it is exactly VerifySolution.
///
/// A non-finite x or b value inside the block fails it with residual +inf;
/// `finite` describes the block's x values alone. An infinite value anywhere
/// in x or b fails every block too, because an infinite ||x||_inf or
/// ||b||_inf would scale any block residual to 0. A NaN outside the block
/// does not enter the norms and counts only in the rows that read it: a NaN
/// x below the block makes a reading row's residual NaN, which the max
/// skips, so the block passes on its other rows (the fleet's survivor
/// pre-pass relies on this). Where ||L||_inf ||x||_inf + ||b||_inf overflows
/// for finite values, the quotient is taken at a power-of-two scale. A row
/// residual that itself overflows fails with +inf, also when +inf and -inf
/// partial sums made it NaN in a row that read no NaN.
Verification VerifyRange(const Csr& lower, std::span<const Val> b,
                         std::span<const Val> x, Idx row_begin, Idx row_end,
                         const VerifyOptions& options = {});

/// host::SolveSerial's row-range form, verified in the same pass: right after
/// x[i] is written, row i's residual and |L| row sum are folded in while the
/// row is still in cache, and one scan each of x and b finishes the check.
/// x comes out bit-identical to host::SolveSerial's and the Verification to
/// VerifyRange's on that x, with one pass over the rows instead of two.
/// Returns SolveSerial's error for a malformed matrix, vector or range.
Expected<Verification> SolveSerialVerified(const Csr& lower,
                                           std::span<const Val> b,
                                           std::span<Val> x, Idx row_begin,
                                           Idx row_end,
                                           const VerifyOptions& options = {});

struct ReliableOptions {
  VerifyOptions verify;
  /// Retry rungs tried after the requested algorithm fails verification.
  /// Empty = the default escalation {kCapelliniTwoPhase, kLevelSet,
  /// kSerialCpu}. The requested algorithm is always rung 0 and duplicates
  /// are skipped.
  std::vector<Algorithm> ladder;
};

/// One rung of the ladder, as it played out.
struct AttemptRecord {
  Algorithm algorithm = Algorithm::kCapellini;
  /// kOk = solved and verified; kDataLoss = solved but failed verification;
  /// otherwise the solve's own error (kDeadlock, ...).
  StatusCode status = StatusCode::kOk;
  /// Relative residual when a solution existed to verify; +inf otherwise.
  double residual = 0.0;
  bool verified = false;
};

struct ReliableResult {
  /// The accepted solution: the first verified rung, or — when no rung
  /// verified — the last rung that produced a solution at all (then
  /// `verified` is false and callers should treat the result as kDataLoss).
  SolveResult solve;
  Algorithm final_algorithm = Algorithm::kCapellini;
  bool verified = false;
  /// Wall-clock milliseconds spent inside VerifySolution after a solve,
  /// summed over attempts — the detection overhead bench_faults reports.
  /// The host serial rung (kSerialCpu) adds nothing here: it verifies inside
  /// its own substitution pass (SolveSerialVerified), whose whole host time
  /// is that rung's solve.solve_ms.
  double verify_ms = 0.0;
  std::vector<AttemptRecord> attempts;
};

/// The default escalation appended after `first`: kCapelliniTwoPhase,
/// kLevelSet, kSerialCpu (exposed for tests and docs).
std::vector<Algorithm> DefaultRetryLadder();

}  // namespace capellini

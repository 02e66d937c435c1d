#include "core/verify.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "host/serial.h"
#include "support/timer.h"

namespace capellini {

namespace {

/// ||v||∞ and whether every value of v is finite, from one read of v.
/// Four independent max accumulators break the compare-latency chain of a
/// single fold; every |v| is >= +0.0 and std::max keeps its accumulator when
/// handed a NaN, so the maximum is the same bits as the sequential fold's.
/// Because the max skips NaN, a sticky sum sees the non-finite values
/// instead: 0 * v is ±0 for finite v and NaN for ±inf or NaN, and a NaN
/// survives every later addition.
struct VectorScan {
  double inf_norm = 0.0;
  bool finite = true;
};

VectorScan ScanVector(std::span<const Val> v) {
  double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= v.size(); i += 4) {
    m0 = std::max(m0, std::abs(v[i]));
    m1 = std::max(m1, std::abs(v[i + 1]));
    m2 = std::max(m2, std::abs(v[i + 2]));
    m3 = std::max(m3, std::abs(v[i + 3]));
    s0 += v[i] * 0.0;
    s1 += v[i + 1] * 0.0;
    s2 += v[i + 2] * 0.0;
    s3 += v[i + 3] * 0.0;
  }
  for (; i < v.size(); ++i) {
    m0 = std::max(m0, std::abs(v[i]));
    s0 += v[i] * 0.0;
  }
  VectorScan scan;
  scan.inf_norm = std::max(std::max(m0, m1), std::max(m2, m3));
  scan.finite = (s0 + s1) + (s2 + s3) == 0.0;
  return scan;
}

/// ||v||∞ over all of v, and whether v is finite in [begin, end): one scan
/// in three pieces.
struct BlockScan {
  double inf_norm = 0.0;
  bool block_finite = true;
};

BlockScan ScanAroundBlock(std::span<const Val> v, std::size_t begin,
                          std::size_t end) {
  const VectorScan below = ScanVector(v.first(begin));
  const VectorScan block = ScanVector(v.subspan(begin, end - begin));
  const VectorScan above = ScanVector(v.subspan(end));
  return {std::max(block.inf_norm, std::max(below.inf_norm, above.inf_norm)),
          block.finite};
}

/// residual / (matrix * x + b) for finite x and b. Where that denominator is
/// finite, this is the plain quotient. Where it overflows, finite values near
/// DBL_MAX would scale any residual to 0, so the quotient is taken at a
/// power-of-two scale instead; a residual (or ||L||∞) that itself overflowed
/// gives +inf.
double RelativeResidual(double residual, double matrix, double x, double b) {
  const double denom = matrix * x + b;
  // A zero denominator means L, x and b are all zero: the residual is exact.
  if (std::isfinite(denom)) return denom > 0.0 ? residual / denom : residual;
  if (std::isinf(residual) || std::isinf(matrix)) {
    return std::numeric_limits<double>::infinity();
  }
  // With e the larger exponent of the two terms, both terms scaled by 2^-e
  // lie below 1 and one of them is at least 1/4, so `scaled` is in [1/4, 2).
  // The denominator overflowed, so e >= 1024: dividing by 4 * scaled cannot
  // overflow, and the 2^(2 - e) that follows cannot either.
  int matrix_exp = 0;
  int x_exp = 0;
  int b_exp = 0;
  const double matrix_frac = std::frexp(matrix, &matrix_exp);
  const double x_frac = std::frexp(x, &x_exp);
  const double b_frac = std::frexp(b, &b_exp);
  const int e = std::max(matrix_exp + x_exp, b_exp);
  const double scaled =
      std::ldexp(matrix_frac * x_frac, matrix_exp + x_exp - e) +
      std::ldexp(b_frac, b_exp - e);
  return std::ldexp(residual / (4.0 * scaled), 2 - e);
}

/// The verdict on rows [row_begin, row_end) from their folded residuals and
/// one scan each of x and b. VerifyRange and SolveSerialVerified both end
/// here, so they agree bit for bit.
Verification FinishVerification(const host::RowResidualFold& rows,
                                std::span<const Val> b, std::span<const Val> x,
                                Idx row_begin, Idx row_end,
                                const VerifyOptions& options) {
  // Finiteness counts inside the block only, while the scaling norms stay
  // whole-vector (the block's rows consume x from below row_begin), so
  // VerifyRange(0, rows) == VerifySolution.
  const auto begin = static_cast<std::size_t>(row_begin);
  const auto end = static_cast<std::size_t>(row_end);
  const BlockScan x_scan = ScanAroundBlock(x, begin, end);
  const BlockScan b_scan = ScanAroundBlock(b, begin, end);

  // A non-finite x or b inside the block fails it. So does an infinite
  // ||x||∞ or ||b||∞, which would scale every block residual down to 0. A
  // NaN outside the block leaves the norms finite (the max skips it) and
  // matters only where the block's rows read it.
  Verification v;
  v.finite = x_scan.block_finite;
  if (!v.finite || !b_scan.block_finite || std::isinf(x_scan.inf_norm) ||
      std::isinf(b_scan.inf_norm)) {
    v.residual = std::numeric_limits<double>::infinity();
    return v;
  }
  v.residual = RelativeResidual(rows.residual_inf, rows.matrix_inf,
                                x_scan.inf_norm, b_scan.inf_norm);
  v.passed = v.residual <= options.residual_bound;
  return v;
}

/// SolveReliable's host serial rung: one SolveSerialVerified pass over every
/// row. Its solve_ms is the host ms of that whole pass, verification
/// included, because serve's cost model reads it.
Expected<SolveResult> SolveSerialRung(const Csr& lower, std::span<const Val> b,
                                      Verification& verification) {
  SolveResult result;
  result.x.assign(static_cast<std::size_t>(lower.rows()), 0.0);
  Timer timer;
  auto verified = SolveSerialVerified(lower, b, result.x, 0, lower.rows());
  if (!verified.ok()) return verified.status();
  result.solve_ms = timer.ElapsedMs();
  const double seconds = result.solve_ms / 1e3;
  if (seconds > 0.0) {
    result.gflops = 2.0 * static_cast<double>(lower.nnz()) / seconds / 1e9;
  }
  verification = *verified;
  return result;
}

}  // namespace

Verification VerifyRange(const Csr& lower, std::span<const Val> b,
                         std::span<const Val> x, Idx row_begin, Idx row_end,
                         const VerifyOptions& options) {
  CAPELLINI_CHECK_MSG(
      b.size() == static_cast<std::size_t>(lower.rows()) && b.size() == x.size(),
      "VerifyRange: b/x must match the matrix dimension");
  CAPELLINI_CHECK_MSG(row_begin >= 0 && row_begin <= row_end &&
                          row_end <= lower.rows(),
                      "VerifyRange: row range out of bounds");
  host::RowResidualFold rows;
  for (Idx i = row_begin; i < row_end; ++i) rows.AddRow(lower, b, x, i);
  return FinishVerification(rows, b, x, row_begin, row_end, options);
}

Expected<Verification> SolveSerialVerified(const Csr& lower,
                                           std::span<const Val> b,
                                           std::span<Val> x, Idx row_begin,
                                           Idx row_end,
                                           const VerifyOptions& options) {
  host::RowResidualFold rows;
  CAPELLINI_RETURN_IF_ERROR(
      host::SolveSerial(lower, b, x, row_begin, row_end, rows));
  return FinishVerification(rows, b, x, row_begin, row_end, options);
}

Verification VerifySolution(const Csr& lower, std::span<const Val> b,
                            std::span<const Val> x,
                            const VerifyOptions& options) {
  return VerifyRange(lower, b, x, 0, lower.rows(), options);
}

std::vector<Algorithm> DefaultRetryLadder() {
  return {Algorithm::kCapelliniTwoPhase, Algorithm::kLevelSet,
          Algorithm::kSerialCpu};
}

Expected<ReliableResult> Solver::SolveReliable(Algorithm algorithm,
                                               std::span<const Val> b) const {
  std::vector<Algorithm> ladder;
  ladder.push_back(algorithm);
  for (const Algorithm rung : DefaultRetryLadder()) {
    if (std::find(ladder.begin(), ladder.end(), rung) == ladder.end()) {
      ladder.push_back(rung);
    }
  }

  ReliableResult result;
  bool have_solution = false;
  Status last_error;
  for (const Algorithm rung : ladder) {
    AttemptRecord attempt;
    attempt.algorithm = rung;
    Verification verification;
    auto solved = rung == Algorithm::kSerialCpu
                      ? SolveSerialRung(lower_, b, verification)
                      : Solve(rung, b);
    if (!solved.ok()) {
      attempt.status = solved.status().code();
      attempt.residual = std::numeric_limits<double>::infinity();
      last_error = solved.status();
      result.attempts.push_back(attempt);
      continue;
    }
    if (rung != Algorithm::kSerialCpu) {
      Timer verify_timer;
      verification = VerifySolution(lower_, b, solved->x);
      result.verify_ms += verify_timer.ElapsedMs();
    }
    attempt.residual = verification.residual;
    attempt.verified = verification.passed;
    attempt.status =
        verification.passed ? StatusCode::kOk : StatusCode::kDataLoss;
    result.attempts.push_back(attempt);
    // Keep the newest solution either way: if no rung ever verifies, the
    // caller still gets the last (least-escalated-from) answer, flagged.
    result.solve = std::move(*solved);
    result.final_algorithm = rung;
    result.verified = verification.passed;
    have_solution = true;
    if (verification.passed) return result;
  }
  if (have_solution) return result;  // verified == false: caller's call
  return last_error;
}

}  // namespace capellini

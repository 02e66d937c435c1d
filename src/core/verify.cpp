#include "core/verify.h"

#include <algorithm>
#include <cmath>
#include <limits>

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
  // x is scanned once, in three pieces: finiteness counts inside the block
  // only, while the scaling norm stays whole-vector (the block's rows consume
  // values from below row_begin), so VerifyRange(0, rows) == VerifySolution.
  const auto begin = static_cast<std::size_t>(row_begin);
  const auto end = static_cast<std::size_t>(row_end);
  const VectorScan below = ScanVector(x.first(begin));
  const VectorScan block = ScanVector(x.subspan(begin, end - begin));
  const VectorScan above = ScanVector(x.subspan(end));
  const double x_inf = std::max(block.inf_norm,
                                std::max(below.inf_norm, above.inf_norm));
  const double b_inf = ScanVector(b).inf_norm;

  // An infinite ||x||∞ or ||b||∞ would scale every block residual down to 0
  // and pass a wrong block, so it fails the block like a non-finite value
  // inside it. A NaN outside the block leaves the norms finite (the max
  // skips it) and matters only where the block's rows read it.
  Verification v;
  v.finite = block.finite;
  if (!v.finite || std::isinf(x_inf) || std::isinf(b_inf)) {
    v.residual = std::numeric_limits<double>::infinity();
    return v;
  }

  // One CSR pass over the block computes ||(Lx - b)|_block||_inf and the
  // block's share of ||L||_inf together.
  double residual_inf = 0.0;
  double matrix_inf = 0.0;
  const std::span<const Idx> row_ptr = lower.row_ptr();
  const std::span<const Idx> col_idx = lower.col_idx();
  const std::span<const Val> vals = lower.val();
  for (Idx i = row_begin; i < row_end; ++i) {
    double row_sum = 0.0;
    double row_abs = 0.0;
    for (Idx k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const double a = vals[static_cast<std::size_t>(k)];
      row_sum += a * x[static_cast<std::size_t>(
                     col_idx[static_cast<std::size_t>(k)])];
      row_abs += std::abs(a);
    }
    residual_inf =
        std::max(residual_inf,
                 std::abs(row_sum - b[static_cast<std::size_t>(i)]));
    matrix_inf = std::max(matrix_inf, row_abs);
  }

  const double denom = matrix_inf * x_inf + b_inf;
  // A zero denominator means L, x and b are all zero: the residual is exact.
  v.residual = denom > 0.0 ? residual_inf / denom : residual_inf;
  v.passed = v.residual <= options.residual_bound;
  return v;
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
  return SolveReliable(algorithm, b, ReliableOptions{});
}

Expected<ReliableResult> Solver::SolveReliable(
    Algorithm algorithm, std::span<const Val> b,
    const ReliableOptions& options) const {
  std::vector<Algorithm> ladder;
  ladder.push_back(algorithm);
  const std::vector<Algorithm> escalation =
      options.ladder.empty() ? DefaultRetryLadder() : options.ladder;
  for (const Algorithm rung : escalation) {
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
    auto solved = Solve(rung, b);
    if (!solved.ok()) {
      attempt.status = solved.status().code();
      attempt.residual = std::numeric_limits<double>::infinity();
      last_error = solved.status();
      result.attempts.push_back(attempt);
      continue;
    }
    Timer verify_timer;
    const Verification verification =
        VerifySolution(lower_, b, solved->x, options.verify);
    result.verify_ms += verify_timer.ElapsedMs();
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

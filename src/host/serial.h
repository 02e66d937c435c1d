// Algorithm 1 on the host CPU — the correctness reference for everything.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "matrix/csr.h"
#include "support/status.h"

namespace capellini::host {

/// The residual of a row block of lower * x = b, folded one row at a time:
/// the largest |sum_j L_ij x_j - b_i| and the largest sum_j |L_ij| over the
/// rows added. VerifyRange (core/verify.h) adds every checked row after the
/// solve; the checked SolveSerial below adds each row right after writing
/// its x, while the row is still in cache. Both run this one routine, so
/// they fold the same bits.
struct RowResidualFold {
  double residual_inf = 0.0;
  double matrix_inf = 0.0;

  /// Adds row i: sum_j L_ij x_j with a fresh accumulator, diagonal included
  /// and in CSR order, and sum_j |L_ij|. A row that reads a NaN x value has
  /// a NaN residual, which leaves residual_inf as it was (std::max keeps its
  /// accumulator on NaN). A NaN residual from a row that read none came from
  /// +inf and -inf partial sums: the row overflowed, and adds +inf.
  void AddRow(const Csr& lower, std::span<const Val> b,
              std::span<const Val> x, Idx i) {
    const std::span<const Idx> col_idx = lower.col_idx();
    const std::span<const Val> vals = lower.val();
    double row_sum = 0.0;
    double row_abs = 0.0;
    for (Idx k = lower.RowBegin(i); k < lower.RowEnd(i); ++k) {
      const double a = vals[static_cast<std::size_t>(k)];
      row_sum += a * x[static_cast<std::size_t>(
                     col_idx[static_cast<std::size_t>(k)])];
      row_abs += std::abs(a);
    }
    double residual = std::abs(row_sum - b[static_cast<std::size_t>(i)]);
    if (std::isnan(residual) &&
        std::ranges::none_of(lower.RowCols(i), [&](Idx col) {
          return std::isnan(x[static_cast<std::size_t>(col)]);
        })) {
      residual = std::numeric_limits<double>::infinity();
    }
    residual_inf = std::max(residual_inf, residual);
    matrix_inf = std::max(matrix_inf, row_abs);
  }
};

/// Solves lower * x = b serially. `lower` must be lower-triangular with a
/// full diagonal; x.size() == b.size() == rows.
Status SolveSerial(const Csr& lower, std::span<const Val> b, std::span<Val> x);

/// Row-range form: solves rows [row_begin, row_end) only, reading x of every
/// earlier column as already solved (the fleet's host failover rung).
Status SolveSerial(const Csr& lower, std::span<const Val> b, std::span<Val> x,
                   Idx row_begin, Idx row_end);

/// Row-range form that also adds each solved row to `rows` right after
/// writing its x. x comes out bit-identical to the form above.
Status SolveSerial(const Csr& lower, std::span<const Val> b, std::span<Val> x,
                   Idx row_begin, Idx row_end, RowResidualFold& rows);

/// Serial SpTRSM: solves lower * X = B for k column-major right-hand sides
/// (b.size() == x.size() == rows * k). The reference for the device MRHS
/// kernels; walks the structure once per row for all k systems.
Status SolveSerialMrhs(const Csr& lower, std::span<const Val> b,
                       std::span<Val> x, int k);

}  // namespace capellini::host

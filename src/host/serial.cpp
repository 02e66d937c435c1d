#include "host/serial.h"

namespace capellini::host {

namespace {

/// The substitution loop. `on_row(i)` runs right after x[i] is written.
template <typename OnRow>
Status Substitute(const Csr& lower, std::span<const Val> b, std::span<Val> x,
                  Idx row_begin, Idx row_end, OnRow&& on_row) {
  if (!lower.IsLowerTriangularWithDiagonal()) {
    return InvalidArgument("matrix is not lower triangular with diagonal");
  }
  const Idx m = lower.rows();
  if (b.size() != static_cast<std::size_t>(m) ||
      x.size() != static_cast<std::size_t>(m)) {
    return InvalidArgument("b/x size mismatch");
  }
  if (row_begin < 0 || row_begin > row_end || row_end > m) {
    return InvalidArgument("row range out of bounds");
  }

  const auto col_idx = lower.col_idx();
  const auto val = lower.val();
  for (Idx i = row_begin; i < row_end; ++i) {
    Val left_sum = 0.0;
    const Idx begin = lower.RowBegin(i);
    const Idx end = lower.RowEnd(i);
    for (Idx j = begin; j < end - 1; ++j) {
      left_sum += val[static_cast<std::size_t>(j)] *
                  x[static_cast<std::size_t>(col_idx[static_cast<std::size_t>(j)])];
    }
    x[static_cast<std::size_t>(i)] =
        (b[static_cast<std::size_t>(i)] - left_sum) /
        val[static_cast<std::size_t>(end - 1)];
    on_row(i);
  }
  return Status::Ok();
}

}  // namespace

Status SolveSerial(const Csr& lower, std::span<const Val> b,
                   std::span<Val> x) {
  return SolveSerial(lower, b, x, 0, lower.rows());
}

Status SolveSerial(const Csr& lower, std::span<const Val> b, std::span<Val> x,
                   Idx row_begin, Idx row_end) {
  return Substitute(lower, b, x, row_begin, row_end, [](Idx) {});
}

Status SolveSerial(const Csr& lower, std::span<const Val> b, std::span<Val> x,
                   Idx row_begin, Idx row_end, RowResidualFold& rows) {
  return Substitute(lower, b, x, row_begin, row_end,
                    [&](Idx i) { rows.AddRow(lower, b, x, i); });
}

Status SolveSerialMrhs(const Csr& lower, std::span<const Val> b,
                       std::span<Val> x, int k) {
  if (!lower.IsLowerTriangularWithDiagonal()) {
    return InvalidArgument("matrix is not lower triangular with diagonal");
  }
  if (k < 1) return InvalidArgument("k must be positive");
  const auto n = static_cast<std::size_t>(lower.rows());
  if (b.size() != n * static_cast<std::size_t>(k) || b.size() != x.size()) {
    return InvalidArgument("B/X must be rows x k column-major");
  }

  const auto col_idx = lower.col_idx();
  const auto val = lower.val();
  // Small fixed upper bound keeps the accumulators in registers; larger k
  // falls back to column-by-column solving.
  constexpr int kMaxFused = 8;
  if (k > kMaxFused) {
    for (int r = 0; r < k; ++r) {
      CAPELLINI_RETURN_IF_ERROR(SolveSerial(
          lower, b.subspan(static_cast<std::size_t>(r) * n, n),
          x.subspan(static_cast<std::size_t>(r) * n, n)));
    }
    return Status::Ok();
  }

  Val sums[kMaxFused];
  for (Idx i = 0; i < lower.rows(); ++i) {
    for (int r = 0; r < k; ++r) sums[r] = 0.0;
    const Idx begin = lower.RowBegin(i);
    const Idx end = lower.RowEnd(i);
    for (Idx j = begin; j < end - 1; ++j) {
      const Val v = val[static_cast<std::size_t>(j)];
      const auto col =
          static_cast<std::size_t>(col_idx[static_cast<std::size_t>(j)]);
      for (int r = 0; r < k; ++r) {
        sums[r] += v * x[static_cast<std::size_t>(r) * n + col];
      }
    }
    const Val diag = val[static_cast<std::size_t>(end - 1)];
    for (int r = 0; r < k; ++r) {
      x[static_cast<std::size_t>(r) * n + static_cast<std::size_t>(i)] =
          (b[static_cast<std::size_t>(r) * n + static_cast<std::size_t>(i)] -
           sums[r]) /
          diag;
    }
  }
  return Status::Ok();
}

}  // namespace capellini::host

#include "matrix/csr.h"

#include <algorithm>
#include <string>

namespace capellini {

Csr::Csr(Idx rows, Idx cols, std::vector<Idx> row_ptr,
         std::vector<Idx> col_idx, std::vector<Val> val)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      val_(std::move(val)) {
  CAPELLINI_CHECK(row_ptr_.size() == static_cast<std::size_t>(rows_) + 1);
  CAPELLINI_CHECK(col_idx_.size() == val_.size());
  CAPELLINI_CHECK(row_ptr_.back() == static_cast<Idx>(col_idx_.size()));
  lower_with_diagonal_ = ScanLowerTriangularWithDiagonal();
}

Status Csr::Validate() const {
  if (rows_ < 0 || cols_ < 0) return InvalidArgument("negative dimensions");
  if (row_ptr_.size() != static_cast<std::size_t>(rows_) + 1) {
    return InvalidArgument("row_ptr size mismatch");
  }
  if (row_ptr_.front() != 0) return InvalidArgument("row_ptr[0] != 0");
  for (Idx r = 0; r < rows_; ++r) {
    const Idx begin = RowBegin(r);
    const Idx end = RowEnd(r);
    if (begin > end) {
      return InvalidArgument("row_ptr not monotone at row " +
                             std::to_string(r));
    }
    for (Idx j = begin; j < end; ++j) {
      const Idx col = col_idx_[static_cast<std::size_t>(j)];
      if (col < 0 || col >= cols_) {
        return InvalidArgument("column out of range at row " +
                               std::to_string(r));
      }
      if (j > begin && col_idx_[static_cast<std::size_t>(j - 1)] >= col) {
        return InvalidArgument("columns not strictly ascending in row " +
                               std::to_string(r));
      }
    }
  }
  if (row_ptr_.back() != static_cast<Idx>(col_idx_.size())) {
    return InvalidArgument("row_ptr.back() != nnz");
  }
  return Status::Ok();
}

bool Csr::ScanLowerTriangularWithDiagonal() const {
  if (rows_ != cols_) return false;
  for (Idx r = 0; r < rows_; ++r) {
    if (!RowEndsOnDiagonal(r)) return false;
  }
  return true;
}

bool Csr::RowEndsOnDiagonal(Idx r) const {
  const Idx begin = RowBegin(r);
  const Idx end = RowEnd(r);
  if (begin < 0 || begin >= end || end > static_cast<Idx>(col_idx_.size())) {
    return false;  // missing diagonal (or a malformed row_ptr)
  }
  if (col_idx_[static_cast<std::size_t>(end - 1)] != r) return false;
  for (Idx j = begin; j < end - 1; ++j) {
    if (col_idx_[static_cast<std::size_t>(j)] >= r) return false;
  }
  return true;
}

Expected<Csr> Csr::WithRowsReplaced(std::span<const RowPatch> patches) const {
  std::int64_t nnz_out = nnz();
  Idx previous = -1;
  for (const RowPatch& patch : patches) {
    if (patch.row <= previous || patch.row >= rows_) {
      return InvalidArgument("patched rows must be in range, ascending and "
                             "unique (row " + std::to_string(patch.row) + ")");
    }
    Idx previous_col = -1;
    for (const auto& [col, value] : patch.entries) {
      if (col <= previous_col || col >= cols_) {
        return InvalidArgument("patched row " + std::to_string(patch.row) +
                               ": columns must be in range and strictly "
                               "ascending");
      }
      previous_col = col;
    }
    nnz_out +=
        static_cast<std::int64_t>(patch.entries.size()) - RowLen(patch.row);
    previous = patch.row;
  }

  Csr out;  // row_ptr_ starts as {0}
  out.rows_ = rows_;
  out.cols_ = cols_;
  out.row_ptr_.reserve(row_ptr_.size());
  out.col_idx_.reserve(static_cast<std::size_t>(nnz_out));
  out.val_.reserve(static_cast<std::size_t>(nnz_out));
  // Rows [next, end) are untouched: their entries move as one run and their
  // row_ptr entries shift by the size change of the rows patched before them.
  Idx next = 0;
  const auto copy_run = [&](Idx end) {
    const auto from = static_cast<std::size_t>(RowBegin(next));
    const auto to = static_cast<std::size_t>(RowBegin(end));
    const Idx shift = static_cast<Idx>(out.col_idx_.size()) - RowBegin(next);
    for (Idx r = next + 1; r <= end; ++r) {
      out.row_ptr_.push_back(row_ptr_[static_cast<std::size_t>(r)] + shift);
    }
    out.col_idx_.insert(out.col_idx_.end(), col_idx_.begin() + from,
                        col_idx_.begin() + to);
    out.val_.insert(out.val_.end(), val_.begin() + from, val_.begin() + to);
  };
  for (const RowPatch& patch : patches) {
    copy_run(patch.row);
    for (const auto& [col, value] : patch.entries) {
      out.col_idx_.push_back(col);
      out.val_.push_back(value);
    }
    out.row_ptr_.push_back(static_cast<Idx>(out.col_idx_.size()));
    next = patch.row + 1;
  }
  copy_run(rows_);

  // Untouched rows keep their shape, so a source with the shape needs only
  // its patched rows checked. A source without it (never a registered
  // factor) may have been mended by the patches, and only a scan can tell.
  out.lower_with_diagonal_ =
      lower_with_diagonal_
          ? std::all_of(patches.begin(), patches.end(),
                        [&](const RowPatch& patch) {
                          return out.RowEndsOnDiagonal(patch.row);
                        })
          : out.ScanLowerTriangularWithDiagonal();
  return out;
}

void Csr::SpMv(std::span<const Val> x, std::span<Val> y) const {
  CAPELLINI_CHECK(x.size() == static_cast<std::size_t>(cols_));
  CAPELLINI_CHECK(y.size() == static_cast<std::size_t>(rows_));
  for (Idx r = 0; r < rows_; ++r) {
    Val sum = 0.0;
    const Idx begin = RowBegin(r);
    const Idx end = RowEnd(r);
    for (Idx j = begin; j < end; ++j) {
      sum += val_[static_cast<std::size_t>(j)] *
             x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(j)])];
    }
    y[static_cast<std::size_t>(r)] = sum;
  }
}

}  // namespace capellini

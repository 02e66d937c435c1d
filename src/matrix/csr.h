// Compressed sparse row matrix — the format the paper's kernels consume.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "matrix/types.h"
#include "support/status.h"

namespace capellini {

/// CSR sparse matrix: row_ptr (rows+1), col_idx (nnz), val (nnz).
/// Column indices within a row are kept sorted ascending — the Capellini
/// kernels rely on the diagonal being the last element of each row.
///
/// The sparsity pattern is fixed at construction (mutable_val() is the only
/// mutator), so the shape that every solver entry point checks is recorded
/// once, by the array constructor, and read in O(1) afterwards.
class Csr {
 public:
  /// The new contents of one row, for WithRowsReplaced: (column, value)
  /// pairs in strictly ascending column order.
  struct RowPatch {
    Idx row = 0;
    std::vector<std::pair<Idx, Val>> entries;
  };

  Csr() = default;
  Csr(Idx rows, Idx cols, std::vector<Idx> row_ptr, std::vector<Idx> col_idx,
      std::vector<Val> val);

  Idx rows() const { return rows_; }
  Idx cols() const { return cols_; }
  std::int64_t nnz() const {
    return row_ptr_.empty() ? 0 : static_cast<std::int64_t>(row_ptr_.back());
  }

  std::span<const Idx> row_ptr() const { return row_ptr_; }
  std::span<const Idx> col_idx() const { return col_idx_; }
  std::span<const Val> val() const { return val_; }
  std::span<Val> mutable_val() { return val_; }

  Idx RowBegin(Idx row) const { return row_ptr_[static_cast<std::size_t>(row)]; }
  Idx RowEnd(Idx row) const {
    return row_ptr_[static_cast<std::size_t>(row) + 1];
  }
  Idx RowLen(Idx row) const { return RowEnd(row) - RowBegin(row); }

  /// Column indices of one row.
  std::span<const Idx> RowCols(Idx row) const {
    return std::span<const Idx>(col_idx_).subspan(
        static_cast<std::size_t>(RowBegin(row)),
        static_cast<std::size_t>(RowLen(row)));
  }
  /// Values of one row.
  std::span<const Val> RowVals(Idx row) const {
    return std::span<const Val>(val_).subspan(
        static_cast<std::size_t>(RowBegin(row)),
        static_cast<std::size_t>(RowLen(row)));
  }

  /// Structural invariants: monotone row_ptr, in-range sorted columns.
  Status Validate() const;

  /// True if the matrix is square and every row's last entry is the diagonal
  /// with all other entries strictly left of it (i.e. a lower-triangular
  /// matrix with full diagonal — the shape required by SpTRSV). O(1): the
  /// array constructor scans the rows once and records the answer, and
  /// WithRowsReplaced carries it over, checking only the rows it replaces.
  bool IsLowerTriangularWithDiagonal() const { return lower_with_diagonal_; }

  /// A copy of this matrix with each patched row's contents replaced and
  /// every other row unchanged: one bulk copy of the untouched row runs plus
  /// the patched rows. When this matrix has the lower-triangular shape only
  /// the patched rows are checked for it; otherwise the copy is rescanned.
  /// Patches must name distinct in-range rows in ascending order, with
  /// in-range, strictly ascending columns; otherwise returns
  /// kInvalidArgument.
  Expected<Csr> WithRowsReplaced(std::span<const RowPatch> patches) const;

  /// y = A * x (dense x). Used to manufacture right-hand sides with a known
  /// solution. x.size() must equal cols(), y.size() rows().
  void SpMv(std::span<const Val> x, std::span<Val> y) const;

  friend bool operator==(const Csr&, const Csr&) = default;

 private:
  /// The O(nnz) check behind IsLowerTriangularWithDiagonal.
  bool ScanLowerTriangularWithDiagonal() const;
  /// False if row `r` is empty, or its last column is not r, or any other
  /// column is r or greater. Never reads outside the arrays, even when
  /// row_ptr is malformed (Validate reports that case).
  bool RowEndsOnDiagonal(Idx r) const;

  Idx rows_ = 0;
  Idx cols_ = 0;
  std::vector<Idx> row_ptr_{0};
  std::vector<Idx> col_idx_;
  std::vector<Val> val_;
  bool lower_with_diagonal_ = true;  // a 0x0 matrix has no row to break it
};

}  // namespace capellini

// Streaming-factor deltas: the mutation API for registered triangular
// factors (DESIGN.md §4h).
//
// A DeltaBatch is an ordered log of edits against one lower-triangular CSR
// factor: value-only updates (new numeric value, same sparsity) and
// structural updates (insert / erase a strictly-lower nonzero). Batches are
// validated and applied atomically — either every delta is legal against the
// target matrix and a fully mutated copy comes back, or the batch is
// rejected with a Status and the factor is untouched. The diagonal can
// change value but never appear or disappear: SpTRSV needs a full nonzero
// diagonal, so inserts/erases are restricted to the strictly-lower triangle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "matrix/csr.h"
#include "support/status.h"

namespace capellini::update {

enum class DeltaKind : std::uint8_t {
  kValue,   // overwrite an existing nonzero's value (diagonal allowed)
  kInsert,  // add a strictly-lower nonzero that is currently absent
  kErase,   // remove a strictly-lower nonzero that is currently present
};

const char* DeltaKindName(DeltaKind kind);

struct Delta {
  DeltaKind kind = DeltaKind::kValue;
  Idx row = 0;
  Idx col = 0;
  Val value = 0;  // ignored for kErase
};

/// An ordered edit log against one factor. Building a batch never touches a
/// matrix; all validation happens in ApplyToMatrix against a concrete Csr.
class DeltaBatch {
 public:
  void UpdateValue(Idx row, Idx col, Val value) {
    deltas_.push_back({DeltaKind::kValue, row, col, value});
  }
  void Insert(Idx row, Idx col, Val value) {
    deltas_.push_back({DeltaKind::kInsert, row, col, value});
  }
  void Erase(Idx row, Idx col) {
    deltas_.push_back({DeltaKind::kErase, row, col, Val{0}});
  }

  const std::vector<Delta>& deltas() const { return deltas_; }
  std::size_t size() const { return deltas_.size(); }
  bool empty() const { return deltas_.empty(); }

  /// True when no delta changes the sparsity pattern — the fast path that
  /// reuses the whole analysis untouched.
  bool value_only() const;
  std::size_t structural_count() const;

  /// Bytes this batch occupies in the registry's delta log (the accounting
  /// the byte budget charges per ApplyDelta).
  std::size_t ByteSize() const { return deltas_.size() * sizeof(Delta); }

 private:
  std::vector<Delta> deltas_;
};

/// Validates `batch` against `lower` and returns the mutated matrix.
/// Rules (checked per delta, in batch order, against the evolving pattern):
///  * coordinates in range and on or below the diagonal;
///  * kValue targets a present nonzero; a diagonal overwrite must be nonzero;
///  * kInsert targets a strictly-lower position that is currently absent;
///  * kErase targets a strictly-lower position that is currently present.
/// Later deltas see earlier ones (insert-then-update is legal; double-insert
/// is not). On any violation returns kInvalidArgument naming the delta.
/// Building the result costs one bulk copy of `lower` plus the touched rows
/// (Csr::WithRowsReplaced); when `lower` has the lower-triangular shape, only
/// the touched rows are checked for it.
Expected<Csr> ApplyToMatrix(const Csr& lower, const DeltaBatch& batch);

/// Draws a deterministic batch of `num_deltas` edits against `lower`.
/// With `structural` false every delta is a value overwrite of an existing
/// nonzero (new value uniform in [0.5, 1.5], so diagonals stay nonzero);
/// with `structural` true roughly half are inserts of absent strictly-lower
/// positions and half erases of present ones (falling back to the other kind
/// when a row has nothing to erase / nowhere to insert). Coordinates are
/// distinct within the batch. Shared by replay update events, update_test
/// and bench_update so all three agree on what "the update at seed s" means.
DeltaBatch MakeRandomBatch(const Csr& lower, int num_deltas, bool structural,
                           std::uint64_t seed);

}  // namespace capellini::update

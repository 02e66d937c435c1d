#include "update/delta.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "support/rng.h"

namespace capellini::update {

const char* DeltaKindName(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kValue:
      return "value";
    case DeltaKind::kInsert:
      return "insert";
    case DeltaKind::kErase:
      return "erase";
  }
  return "?";
}

bool DeltaBatch::value_only() const { return structural_count() == 0; }

std::size_t DeltaBatch::structural_count() const {
  std::size_t count = 0;
  for (const Delta& d : deltas_) {
    if (d.kind != DeltaKind::kValue) ++count;
  }
  return count;
}

namespace {

std::string DeltaLabel(std::size_t index, const Delta& d) {
  return "delta #" + std::to_string(index) + " (" + DeltaKindName(d.kind) +
         " at (" + std::to_string(d.row) + "," + std::to_string(d.col) + "))";
}

}  // namespace

Expected<Csr> ApplyToMatrix(const Csr& lower, const DeltaBatch& batch) {
  const Idx n = lower.rows();
  const std::vector<Delta>& deltas = batch.deltas();
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const Delta& d = deltas[i];
    if (d.row < 0 || d.row >= n || d.col < 0 || d.col > d.row) {
      return InvalidArgument(DeltaLabel(i, d) +
                             ": coordinates must satisfy 0 <= col <= row < " +
                             std::to_string(n));
    }
    if (d.kind != DeltaKind::kValue && d.col == d.row) {
      return InvalidArgument(DeltaLabel(i, d) +
                             ": the diagonal cannot be inserted or erased "
                             "(SpTRSV needs a full nonzero diagonal)");
    }
  }

  // Order the deltas by row. The sort is stable, so batch order is preserved
  // within a row; deltas on different rows are independent, so per-row
  // replay keeps the batch's "later deltas see earlier ones" semantics.
  std::vector<std::size_t> order(deltas.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return deltas[a].row < deltas[b].row;
                   });

  // Replay each touched row's edits against a working (col, value) list.
  std::vector<Csr::RowPatch> patches;
  for (std::size_t k = 0; k < order.size();) {
    const Idx row = deltas[order[k]].row;
    const auto cols = lower.RowCols(row);
    const auto vals = lower.RowVals(row);
    std::vector<std::pair<Idx, Val>> entries;
    entries.reserve(cols.size() + order.size() - k);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      entries.emplace_back(cols[j], vals[j]);
    }
    for (; k < order.size() && deltas[order[k]].row == row; ++k) {
      const std::size_t i = order[k];
      const Delta& d = deltas[i];
      auto it = std::lower_bound(
          entries.begin(), entries.end(), d.col,
          [](const std::pair<Idx, Val>& e, Idx col) { return e.first < col; });
      const bool present = it != entries.end() && it->first == d.col;
      switch (d.kind) {
        case DeltaKind::kValue:
          if (!present) {
            return InvalidArgument(DeltaLabel(i, d) +
                                   ": no such nonzero (use insert to change "
                                   "the sparsity pattern)");
          }
          if (d.col == d.row && d.value == Val{0}) {
            return InvalidArgument(DeltaLabel(i, d) +
                                   ": diagonal values must stay nonzero");
          }
          it->second = d.value;
          break;
        case DeltaKind::kInsert:
          if (present) {
            return InvalidArgument(DeltaLabel(i, d) +
                                   ": position already holds a nonzero (use a "
                                   "value update)");
          }
          entries.insert(it, {d.col, d.value});
          break;
        case DeltaKind::kErase:
          if (!present) {
            return InvalidArgument(DeltaLabel(i, d) + ": no such nonzero");
          }
          entries.erase(it);
          break;
      }
    }
    patches.push_back({row, std::move(entries)});
  }
  return lower.WithRowsReplaced(patches);
}

namespace {

// Row containing flat nonzero index `flat` (binary search over row_ptr).
Idx RowOfNonzero(const Csr& m, Idx flat) {
  const auto rp = m.row_ptr();
  auto it = std::upper_bound(rp.begin(), rp.end(), flat);
  return static_cast<Idx>(it - rp.begin()) - 1;
}

bool HasNonzero(const Csr& m, Idx row, Idx col) {
  const auto cols = m.RowCols(row);
  return std::binary_search(cols.begin(), cols.end(), col);
}

std::uint64_t CoordKey(Idx row, Idx col) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(row)) << 32) |
         static_cast<std::uint32_t>(col);
}

}  // namespace

DeltaBatch MakeRandomBatch(const Csr& lower, int num_deltas, bool structural,
                           std::uint64_t seed) {
  DeltaBatch batch;
  const Idx n = lower.rows();
  const Idx nnz = static_cast<Idx>(lower.nnz());
  if (n == 0 || nnz == 0 || num_deltas <= 0) return batch;

  Rng rng(seed ^ 0x5eedde17aba7c8ull);
  std::unordered_set<std::uint64_t> claimed;  // distinct coordinates per batch
  constexpr int kAttempts = 64;

  const auto try_value = [&]() {
    for (int a = 0; a < kAttempts; ++a) {
      const Idx flat = static_cast<Idx>(
          rng.NextBounded(static_cast<std::uint64_t>(nnz)));
      const Idx row = RowOfNonzero(lower, flat);
      const Idx col = lower.col_idx()[static_cast<std::size_t>(flat)];
      if (!claimed.insert(CoordKey(row, col)).second) continue;
      // [0.5, 1.5] keeps diagonal overwrites away from zero.
      batch.UpdateValue(row, col, static_cast<Val>(rng.NextDouble(0.5, 1.5)));
      return true;
    }
    return false;
  };
  const auto try_erase = [&]() {
    for (int a = 0; a < kAttempts; ++a) {
      const Idx flat = static_cast<Idx>(
          rng.NextBounded(static_cast<std::uint64_t>(nnz)));
      const Idx row = RowOfNonzero(lower, flat);
      const Idx col = lower.col_idx()[static_cast<std::size_t>(flat)];
      if (col == row) continue;  // never erase the diagonal
      if (!claimed.insert(CoordKey(row, col)).second) continue;
      batch.Erase(row, col);
      return true;
    }
    return false;
  };
  const auto try_insert = [&]() {
    if (n < 2) return false;
    for (int a = 0; a < kAttempts; ++a) {
      const Idx row = static_cast<Idx>(
          1 + rng.NextBounded(static_cast<std::uint64_t>(n - 1)));
      const Idx col =
          static_cast<Idx>(rng.NextBounded(static_cast<std::uint64_t>(row)));
      if (HasNonzero(lower, row, col)) continue;
      if (!claimed.insert(CoordKey(row, col)).second) continue;
      batch.Insert(row, col, static_cast<Val>(rng.NextDouble(0.5, 1.5)));
      return true;
    }
    return false;
  };

  for (int i = 0; i < num_deltas; ++i) {
    if (!structural) {
      if (!try_value()) break;
      continue;
    }
    const bool want_insert = rng.NextBool(0.5);
    const bool placed = want_insert ? (try_insert() || try_erase())
                                    : (try_erase() || try_insert());
    if (!placed && !try_value()) break;  // degenerate factor: nothing left
  }
  return batch;
}

}  // namespace capellini::update

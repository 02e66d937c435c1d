#include "graph/levels.h"

#include <algorithm>
#include <utility>

#include "support/status.h"

namespace capellini {

LevelSets BuildLevelSetsFromLevelOf(std::vector<Idx> level_of) {
  const Idx n = static_cast<Idx>(level_of.size());
  Idx max_level = -1;
  for (Idx i = 0; i < n; ++i) {
    max_level = std::max(max_level, level_of[static_cast<std::size_t>(i)]);
  }

  LevelSets sets;
  sets.level_of = std::move(level_of);
  const Idx num_levels = n == 0 ? 0 : max_level + 1;
  sets.level_ptr.assign(static_cast<std::size_t>(num_levels) + 1, 0);
  for (Idx i = 0; i < n; ++i) {
    ++sets.level_ptr[static_cast<std::size_t>(
                         sets.level_of[static_cast<std::size_t>(i)]) +
                     1];
  }
  for (Idx k = 0; k < num_levels; ++k) {
    sets.level_ptr[static_cast<std::size_t>(k) + 1] +=
        sets.level_ptr[static_cast<std::size_t>(k)];
  }

  sets.order.resize(static_cast<std::size_t>(n));
  std::vector<Idx> cursor(sets.level_ptr.begin(), sets.level_ptr.end() - 1);
  for (Idx i = 0; i < n; ++i) {
    const Idx level = sets.level_of[static_cast<std::size_t>(i)];
    sets.order[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(level)]++)] = i;
  }
  return sets;
}

LevelSets PatchLevelSets(const LevelSets& before, std::vector<Idx> level_of,
                         std::span<const Idx> moved) {
  CAPELLINI_CHECK(level_of.size() == before.level_of.size());
  const Idx old_levels = before.num_levels();

  // Every moved row leaves one level and joins another. As (level, row,
  // joins) sorted, the events of one level are contiguous and ascending.
  struct Event {
    Idx level;
    Idx row;
    bool joins;
    bool operator<(const Event& other) const {
      return level != other.level ? level < other.level : row < other.row;
    }
  };
  std::vector<Event> events;
  events.reserve(2 * moved.size());
  Idx top = old_levels;
  for (const Idx row : moved) {
    const Idx from = before.level_of[static_cast<std::size_t>(row)];
    const Idx to = level_of[static_cast<std::size_t>(row)];
    CAPELLINI_CHECK_MSG(from != to,
                        "PatchLevelSets: a moved row kept its level");
    events.push_back({from, row, false});
    events.push_back({to, row, true});
    top = std::max(top, to + 1);
  }
  std::sort(events.begin(), events.end());

  std::vector<Idx> size(static_cast<std::size_t>(top), 0);
  for (Idx k = 0; k < old_levels; ++k) {
    size[static_cast<std::size_t>(k)] = before.LevelSize(k);
  }
  for (const Event& e : events) {
    size[static_cast<std::size_t>(e.level)] += e.joins ? 1 : -1;
  }
  // A valid assignment occupies levels 0..max without gaps, so only the top
  // can have emptied.
  while (top > 0 && size[static_cast<std::size_t>(top) - 1] == 0) --top;

  LevelSets sets;
  sets.level_of = std::move(level_of);
  sets.level_ptr.assign(static_cast<std::size_t>(top) + 1, 0);
  for (Idx k = 0; k < top; ++k) {
    sets.level_ptr[static_cast<std::size_t>(k) + 1] =
        sets.level_ptr[static_cast<std::size_t>(k)] +
        size[static_cast<std::size_t>(k)];
  }
  CAPELLINI_CHECK(sets.level_ptr.back() ==
                  static_cast<Idx>(sets.level_of.size()));

  // Each new run is its old run copied in whole segments: a leaving row is
  // found by binary search and skipped, a joining row is written where the
  // ascending order puts it.
  sets.order.reserve(sets.level_of.size());
  auto event = events.cbegin();
  for (Idx k = 0; k < top; ++k) {
    const std::span<const Idx> run =
        k < old_levels ? before.LevelRows(k) : std::span<const Idx>();
    auto copied = run.begin();
    for (; event != events.cend() && event->level == k; ++event) {
      const auto at = std::lower_bound(copied, run.end(), event->row);
      sets.order.insert(sets.order.end(), copied, at);
      copied = at;
      if (event->joins) {
        sets.order.push_back(event->row);
      } else {
        CAPELLINI_CHECK(copied != run.end() && *copied == event->row);
        ++copied;
      }
    }
    sets.order.insert(sets.order.end(), copied, run.end());
    CAPELLINI_CHECK(static_cast<Idx>(sets.order.size()) ==
                    sets.level_ptr[static_cast<std::size_t>(k) + 1]);
  }
  return sets;
}

LevelSets ComputeLevelSets(const Csr& lower) {
  CAPELLINI_CHECK_MSG(lower.IsLowerTriangularWithDiagonal(),
                      "level sets need a lower-triangular matrix with diagonal");
  const Idx n = lower.rows();

  std::vector<Idx> level_of(static_cast<std::size_t>(n), 0);

  // Rows only depend on earlier rows, so one ascending pass suffices.
  for (Idx i = 0; i < n; ++i) {
    Idx level = 0;
    const auto cols = lower.RowCols(i);
    // Last entry is the diagonal; strictly-lower entries precede it.
    for (std::size_t j = 0; j + 1 < cols.size(); ++j) {
      level = std::max(level,
                       level_of[static_cast<std::size_t>(cols[j])] + 1);
    }
    level_of[static_cast<std::size_t>(i)] = level;
  }
  return BuildLevelSetsFromLevelOf(std::move(level_of));
}

Csr GatherRowsByLevel(const Csr& lower, const LevelSets& levels) {
  const Idx n = lower.rows();
  CAPELLINI_CHECK(levels.order.size() == static_cast<std::size_t>(n));

  std::vector<Idx> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (Idx k = 0; k < n; ++k) {
    row_ptr[static_cast<std::size_t>(k) + 1] =
        row_ptr[static_cast<std::size_t>(k)] +
        lower.RowLen(levels.order[static_cast<std::size_t>(k)]);
  }
  std::vector<Idx> col_idx(static_cast<std::size_t>(lower.nnz()));
  std::vector<Val> val(static_cast<std::size_t>(lower.nnz()));
  for (Idx k = 0; k < n; ++k) {
    const Idx src = levels.order[static_cast<std::size_t>(k)];
    const auto cols = lower.RowCols(src);
    const auto vals = lower.RowVals(src);
    std::size_t dst = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(k)]);
    for (std::size_t j = 0; j < cols.size(); ++j, ++dst) {
      col_idx[dst] = cols[j];
      val[dst] = vals[j];
    }
  }
  return Csr(n, lower.cols(), std::move(row_ptr), std::move(col_idx),
             std::move(val));
}

PermutedSystem PermuteSystemByLevel(const Csr& lower,
                                    const LevelSets& levels) {
  const Idx n = lower.rows();
  CAPELLINI_CHECK(levels.order.size() == static_cast<std::size_t>(n));

  PermutedSystem out;
  out.order = levels.order;
  out.inverse.assign(static_cast<std::size_t>(n), 0);
  for (Idx k = 0; k < n; ++k) {
    out.inverse[static_cast<std::size_t>(
        out.order[static_cast<std::size_t>(k)])] = k;
  }

  std::vector<Idx> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (Idx k = 0; k < n; ++k) {
    row_ptr[static_cast<std::size_t>(k) + 1] =
        row_ptr[static_cast<std::size_t>(k)] +
        lower.RowLen(out.order[static_cast<std::size_t>(k)]);
  }
  std::vector<Idx> col_idx(static_cast<std::size_t>(lower.nnz()));
  std::vector<Val> val(static_cast<std::size_t>(lower.nnz()));
  std::vector<std::pair<Idx, Val>> entries;
  for (Idx k = 0; k < n; ++k) {
    const Idx src = out.order[static_cast<std::size_t>(k)];
    const auto cols = lower.RowCols(src);
    const auto vals = lower.RowVals(src);
    entries.clear();
    entries.reserve(cols.size());
    for (std::size_t j = 0; j < cols.size(); ++j) {
      entries.emplace_back(
          out.inverse[static_cast<std::size_t>(cols[j])], vals[j]);
    }
    // Renamed columns are no longer ascending; restore the CSR invariant
    // (sorted columns, diagonal last). Dependencies map to strictly smaller
    // levels and hence to indices < k, so the row stays lower-triangular
    // with the diagonal as its largest column.
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t dst =
        static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(k)]);
    for (const auto& [c, v] : entries) {
      col_idx[dst] = c;
      val[dst] = v;
      ++dst;
    }
  }
  out.matrix = Csr(n, lower.cols(), std::move(row_ptr), std::move(col_idx),
                   std::move(val));
  CAPELLINI_CHECK_MSG(out.matrix.IsLowerTriangularWithDiagonal(),
                      "symmetric level permutation must stay triangular");
  return out;
}

void PermuteVector(std::span<const Idx> order, std::span<const Val> in,
                   std::span<Val> out) {
  CAPELLINI_CHECK(in.size() == order.size() && out.size() == order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    out[k] = in[static_cast<std::size_t>(order[k])];
  }
}

void UnpermuteVector(std::span<const Idx> order, std::span<const Val> in,
                     std::span<Val> out) {
  CAPELLINI_CHECK(in.size() == order.size() && out.size() == order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    out[static_cast<std::size_t>(order[k])] = in[k];
  }
}

}  // namespace capellini

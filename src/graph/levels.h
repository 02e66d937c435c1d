// Level-set analysis of the dependency DAG of a lower-triangular system.
//
// This is the preprocessing step of the classic level-set SpTRSV
// (Anderson & Saad; Saltz — Algorithm 2 in the paper): rows are grouped into
// levels such that all rows in a level depend only on rows in earlier levels
// and can be solved in parallel.
#pragma once

#include <span>
#include <vector>

#include "matrix/csr.h"

namespace capellini {

/// Result of level-set preprocessing. Mirrors the arrays in the paper:
/// `layer` (number of levels), `layer_num` (level_ptr here) and `order`.
struct LevelSets {
  /// level_of[row] = level index of that row (0-based).
  std::vector<Idx> level_of;
  /// level_ptr[k]..level_ptr[k+1] delimit level k's rows inside `order`.
  std::vector<Idx> level_ptr;
  /// Row numbers sorted by level (ties keep ascending row order).
  std::vector<Idx> order;

  Idx num_levels() const {
    return static_cast<Idx>(level_ptr.empty() ? 0 : level_ptr.size() - 1);
  }
  Idx LevelSize(Idx level) const {
    return level_ptr[static_cast<std::size_t>(level) + 1] -
           level_ptr[static_cast<std::size_t>(level)];
  }
  std::span<const Idx> LevelRows(Idx level) const {
    return std::span<const Idx>(order).subspan(
        static_cast<std::size_t>(level_ptr[static_cast<std::size_t>(level)]),
        static_cast<std::size_t>(LevelSize(level)));
  }
};

/// Computes level sets of a lower-triangular CSR matrix with full diagonal.
/// level(i) = 1 + max(level(j)) over strictly-lower entries j of row i.
/// Cost: O(nnz) — this is the "long preprocessing" the paper attributes to
/// level-set SpTRSV (it walks the whole structure and builds three arrays).
LevelSets ComputeLevelSets(const Csr& lower);

/// Assembles the level_ptr/order arrays from a per-row level assignment via
/// the counting sort ComputeLevelSets uses (rows of one level in ascending
/// row order). Shared by the host sweep, the incremental re-analyzer and the
/// on-device analyser, so every producer of a `level_of` array yields
/// bit-identical LevelSets by construction.
LevelSets BuildLevelSetsFromLevelOf(std::vector<Idx> level_of);

/// The level sets after some rows changed level, patched from `before`
/// instead of counting-sorted again. `level_of` is the complete new
/// assignment (a valid one: every row above level 0 depends on a row one
/// level down), and `moved` lists, without duplicates, exactly the rows
/// whose level differs from before.level_of. Only those rows move between the
/// per-level runs of `order`; every run keeps ascending row order and levels
/// can appear or empty at the top, so the result equals
/// BuildLevelSetsFromLevelOf(level_of). Cost: one sequential copy of
/// `order` in whole segments plus O(|moved| log n + levels), against the
/// counting sort's scattered writes.
LevelSets PatchLevelSets(const LevelSets& before, std::vector<Idx> level_of,
                         std::span<const Idx> moved);

/// Builds the level-GATHERED copy of the matrix used by level-set solvers:
/// row k of the result is row order[k] of `lower` (rows of one level become
/// contiguous, so threads of one level launch read neighbouring rows).
///
/// CONTRACT — schedule order only: column indices are NOT remapped, they
/// keep indexing the ORIGINAL x. The result is therefore generally NOT a
/// lower-triangular system and must not be handed to a solver as one; it is
/// launch metadata for kernels that gather x through the original numbering
/// (the per-level launches in kernels/launch.cpp). For a solvable reordered
/// system use PermuteSystemByLevel, which applies the full symmetric
/// permutation. graph_permute_test pins both contracts.
Csr GatherRowsByLevel(const Csr& lower, const LevelSets& levels);

/// A level-scheduled SYMMETRIC permutation of a triangular system
/// (Böhnlein et al.-style scheduled reordering): row and column k of
/// `matrix` are row and column order[k] of the original, so the permuted
/// matrix is again lower-triangular with full diagonal (dependencies only
/// point to earlier levels, which sort earlier) and rows of one level occupy
/// a contiguous, warp-aligned index range — the reordering that raises
/// effective warp-level granularity when Eq.-1 predicts collapse.
///
/// Solving: (P L P^T) y = P b, then x = P^T y — use PermuteVector on b and
/// UnpermuteVector on y. NOTE: column re-sorting changes each row's
/// accumulation order, so solutions agree with the unpermuted solve to
/// rounding, not bit-for-bit.
struct PermutedSystem {
  Csr matrix;
  /// permuted index k <- original index order[k] (the level-set order).
  std::vector<Idx> order;
  /// inverse[original] = permuted.
  std::vector<Idx> inverse;
};
PermutedSystem PermuteSystemByLevel(const Csr& lower, const LevelSets& levels);

/// out[k] = in[order[k]] (b of the permuted system).
void PermuteVector(std::span<const Idx> order, std::span<const Val> in,
                   std::span<Val> out);
/// out[order[k]] = in[k] (maps the permuted solution back).
void UnpermuteVector(std::span<const Idx> order, std::span<const Val> in,
                     std::span<Val> out);

}  // namespace capellini

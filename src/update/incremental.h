// IncrementalAnalyzer: apply a DeltaBatch to an analyzed factor without
// re-running full analysis (DESIGN.md §4h).
//
// Value-only batches copy the new numbers into the CSR and share the
// previous epoch's Analysis object — level structure, histograms and the
// Figure-6 recommendation are functions of sparsity alone. Structural
// batches re-level incrementally: dependencies in a lower-triangular factor
// only point from lower to higher row indices, so re-leveling an edited row
// can only shift rows in its forward cone (transitive consumers). A min-
// ordered worklist seeded with the edited rows pops rows in ascending order
// and recomputes level(i) = 1 + max(level(j)) over strictly-lower columns;
// because every dependency of a popped row is either untouched or already
// finalized (its index is smaller), each cone row is recomputed exactly
// once. Rows outside the cone keep their levels. The rest of the analysis
// is patched, not rebuilt: only the rows whose level changed move between
// the level runs of `order` (PatchLevelSets), only the edited rows move
// between row-length buckets (PatchRowLengthHistogram), and the stats and
// recommendation are re-derived from the patched levels in O(levels). The
// patched Analysis is bit-identical to Analyze() of the mutated matrix
// (update_test checks this against the from-scratch oracle).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/analysis.h"
#include "matrix/csr.h"
#include "support/status.h"
#include "update/delta.h"

namespace capellini::update {

/// Transpose adjacency of the strictly-lower triangle: consumers[j] lists
/// the rows i > j whose row i holds a nonzero in column j — i.e. the rows
/// whose level can shift when row j's level shifts. ComputeLevelSets never
/// needs this (it sweeps every row anyway); the incremental path does, so
/// the registry builds it once per handle on the first structural update
/// (O(nnz)) and PATCHES it per delta afterwards — that one-time build is the
/// amortized cost bench_update reports.
class ConsumerGraph {
 public:
  static ConsumerGraph Build(const Csr& lower);

  /// Mirrors a batch's structural deltas (inserts add a consumer, erases
  /// remove one; value updates are no-ops). Call with the same batch that
  /// mutated the matrix, before propagating levels.
  void ApplyStructural(const DeltaBatch& batch);

  std::span<const Idx> Consumers(Idx col) const { return consumers_[static_cast<std::size_t>(col)]; }
  Idx rows() const { return static_cast<Idx>(consumers_.size()); }

 private:
  // consumers_[j] kept sorted ascending so patching is a binary search.
  std::vector<std::vector<Idx>> consumers_;
};

/// Result of one incremental apply: the mutated factor, an Analysis valid
/// for it, and the cost counters the serve layer reports.
struct UpdateResult {
  Csr matrix;
  /// The input analysis itself for a value-only batch; a new, patched one
  /// for a structural batch.
  std::shared_ptr<const Analysis> analysis;
  bool value_only = false;
  /// Rows whose level was recomputed (the forward-cone size; 0 for
  /// value-only batches). The incremental win is this over total rows.
  Idx rows_releveled = 0;
  Idx total_rows = 0;
  /// Host milliseconds spent applying the batch + patching the analysis —
  /// the number bench_update compares against full re-analysis.
  double update_ms = 0.0;
  /// The re-analysis portion of update_ms alone: forward-cone re-leveling,
  /// the level-set and row-length histogram patches, and the stats refresh.
  /// 0.0 for value-only batches (the analysis object is shared). This is
  /// what each registry epoch records as its analysis_ms.
  double analysis_ms = 0.0;
};

/// Stateless apart from reusable scratch buffers; one instance per registry,
/// called under the registry's update lock.
class IncrementalAnalyzer {
 public:
  /// Applies `batch` to (`lower`, `analysis`). Returns the mutated factor
  /// with its shared or patched analysis, or kInvalidArgument (from
  /// ApplyToMatrix validation) with the inputs untouched. `analysis` must
  /// describe `lower` and is never modified.
  ///
  /// `consumers` carries the handle's transpose adjacency across updates:
  /// structural batches patch and use it (building it first — charged to
  /// this call's update_ms — if it is empty/mismatched). Pass nullptr to
  /// have a throwaway graph built internally.
  Expected<UpdateResult> Apply(const Csr& lower,
                               std::shared_ptr<const Analysis> analysis,
                               const DeltaBatch& batch,
                               ConsumerGraph* consumers = nullptr);

 private:
  // Scratch reused across calls (sized to the largest factor seen).
  std::vector<Idx> heap_;
  std::vector<bool> queued_;
  std::vector<Idx> edited_;  // structurally edited rows, distinct
  std::vector<Idx> moved_;   // rows whose level changed, ascending
};

}  // namespace capellini::update

#include "update/incremental.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "support/timer.h"

namespace capellini::update {

ConsumerGraph ConsumerGraph::Build(const Csr& lower) {
  ConsumerGraph graph;
  const Idx n = lower.rows();
  graph.consumers_.assign(static_cast<std::size_t>(n), {});
  std::vector<Idx> counts(static_cast<std::size_t>(n), 0);
  for (Idx i = 0; i < n; ++i) {
    const auto cols = lower.RowCols(i);
    for (std::size_t j = 0; j + 1 < cols.size(); ++j) {
      ++counts[static_cast<std::size_t>(cols[j])];
    }
  }
  for (Idx j = 0; j < n; ++j) {
    graph.consumers_[static_cast<std::size_t>(j)].reserve(
        static_cast<std::size_t>(counts[static_cast<std::size_t>(j)]));
  }
  // Rows ascend, so each consumer list comes out sorted.
  for (Idx i = 0; i < n; ++i) {
    const auto cols = lower.RowCols(i);
    for (std::size_t j = 0; j + 1 < cols.size(); ++j) {
      graph.consumers_[static_cast<std::size_t>(cols[j])].push_back(i);
    }
  }
  return graph;
}

void ConsumerGraph::ApplyStructural(const DeltaBatch& batch) {
  for (const Delta& d : batch.deltas()) {
    if (d.kind == DeltaKind::kValue) continue;
    std::vector<Idx>& list = consumers_[static_cast<std::size_t>(d.col)];
    auto it = std::lower_bound(list.begin(), list.end(), d.row);
    if (d.kind == DeltaKind::kInsert) {
      list.insert(it, d.row);
    } else if (it != list.end() && *it == d.row) {
      list.erase(it);
    }
  }
}

Expected<UpdateResult> IncrementalAnalyzer::Apply(
    const Csr& lower, std::shared_ptr<const Analysis> analysis,
    const DeltaBatch& batch, ConsumerGraph* consumers) {
  CAPELLINI_CHECK(analysis != nullptr);
  Timer timer;
  Expected<Csr> mutated = ApplyToMatrix(lower, batch);
  if (!mutated.ok()) return mutated.status();

  UpdateResult result;
  result.matrix = std::move(mutated).value();
  result.total_rows = lower.rows();

  if (batch.value_only()) {
    // Sparsity unchanged: levels, histograms and the recommendation are all
    // functions of structure alone — share the whole analysis.
    result.value_only = true;
    result.analysis = std::move(analysis);
    result.update_ms = timer.ElapsedMs();
    return result;
  }

  const Idx n = result.matrix.rows();
  ConsumerGraph local;
  if (consumers == nullptr || consumers->rows() != n) {
    // First structural update on this factor (or a caller without a cached
    // graph): pay the one-time O(nnz) transpose build here.
    local = ConsumerGraph::Build(lower);
    consumers = &local;
  }
  consumers->ApplyStructural(batch);

  Timer analysis_timer;
  const Analysis& before = *analysis;
  std::vector<Idx> level_of = before.levels.level_of;

  // Min-ordered worklist seeded with the structurally edited rows. Pops come
  // out ascending (every push targets a consumer, i.e. a larger row), so by
  // the time a row is recomputed all of its dependencies are final — the
  // same invariant that lets ComputeLevelSets get away with one ascending
  // sweep. `queued_` is "ever enqueued": a row can only be pushed from a
  // smaller row, which is processed before the row is popped, so each cone
  // row is recomputed exactly once.
  heap_.clear();
  edited_.clear();
  moved_.clear();
  queued_.assign(static_cast<std::size_t>(n), false);
  const auto push = [&](Idx row) {
    if (queued_[static_cast<std::size_t>(row)]) return false;
    queued_[static_cast<std::size_t>(row)] = true;
    heap_.push_back(row);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Idx>());
    return true;
  };
  for (const Delta& d : batch.deltas()) {
    if (d.kind != DeltaKind::kValue && push(d.row)) edited_.push_back(d.row);
  }

  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Idx>());
    const Idx i = heap_.back();
    heap_.pop_back();
    ++result.rows_releveled;

    Idx level = 0;
    const auto cols = result.matrix.RowCols(i);
    for (std::size_t j = 0; j + 1 < cols.size(); ++j) {
      level = std::max(level, level_of[static_cast<std::size_t>(cols[j])] + 1);
    }
    if (level == level_of[static_cast<std::size_t>(i)]) continue;
    level_of[static_cast<std::size_t>(i)] = level;
    moved_.push_back(i);
    for (const Idx k : consumers->Consumers(i)) push(k);
  }

  // Patch the previous analysis: only the moved rows change level runs and
  // only the edited rows change row-length buckets; the stats tail is
  // derived the same way AssembleAnalysis does for the from-scratch oracle.
  result.analysis = std::make_shared<const Analysis>(AssembleAnalysis(
      result.matrix, before.stats.name,
      PatchLevelSets(before.levels, std::move(level_of), moved_),
      PatchRowLengthHistogram(before.row_lengths, lower, result.matrix,
                              edited_)));
  result.analysis_ms = analysis_timer.ElapsedMs();
  result.update_ms = timer.ElapsedMs();
  return result;
}

}  // namespace capellini::update

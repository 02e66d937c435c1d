// Tests for the streaming-factor delta subsystem (DESIGN.md §4h):
// DeltaBatch validation, IncrementalAnalyzer vs the from-scratch Analyze
// oracle, registry ApplyDelta epoch/byte semantics, in-flight snapshot
// safety through the service, mixed solve/update replay, and the
// exactly-once update accounting next to the PR-4 request invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/solver.h"
#include "gen/banded.h"
#include "gen/level_structured.h"
#include "gen/random_lower.h"
#include "matrix/triangular.h"
#include "serve/registry.h"
#include "serve/replay.h"
#include "serve/service.h"
#include "sim/config.h"
#include "support/json.h"
#include "update/delta.h"
#include "update/incremental.h"

namespace capellini {
namespace {

using serve::MatrixRegistry;
using serve::RegistryOptions;
using serve::ServiceOptions;
using serve::SolveService;
using update::DeltaBatch;
using update::DeltaKind;
using update::IncrementalAnalyzer;

std::uint64_t FnvChecksum(const std::vector<Val>& x) {
  std::uint64_t h = serve::kFnvSeed;
  for (const Val v : x) h = serve::HashBytes(h, &v, sizeof(v));
  return h;
}

SolverOptions TinyOptions() {
  SolverOptions options;
  options.device = sim::TinyTestDevice();
  return options;
}

bool HasEntry(const Csr& m, Idx row, Idx col) {
  const auto cols = m.RowCols(row);
  return std::binary_search(cols.begin(), cols.end(), col);
}

/// First strictly-lower position (row, col) absent from `m`, scanning from
/// `from_row`. Fails the test if none exists (pick sparser inputs).
std::pair<Idx, Idx> FindAbsentStrictLower(const Csr& m, Idx from_row) {
  for (Idx i = std::max<Idx>(from_row, 1); i < m.rows(); ++i) {
    for (Idx j = 0; j < i; ++j) {
      if (!HasEntry(m, i, j)) return {i, j};
    }
  }
  ADD_FAILURE() << "no absent strictly-lower position";
  return {0, 0};
}

/// First strictly-lower nonzero (row, col) present in `m` at or after
/// `from_row`.
std::pair<Idx, Idx> FindPresentStrictLower(const Csr& m, Idx from_row) {
  for (Idx i = std::max<Idx>(from_row, 1); i < m.rows(); ++i) {
    const auto cols = m.RowCols(i);
    if (cols.size() > 1) return {i, cols[0]};
  }
  ADD_FAILURE() << "no present strictly-lower nonzero";
  return {0, 0};
}

/// 4x4 lower factor with a mix of dense and diagonal-only rows:
///   row0: (0,0)=2
///   row1: (1,0)=1 (1,1)=3
///   row2: (2,2)=4
///   row3: (3,1)=5 (3,3)=6
Csr HandMatrix() {
  return Csr(4, 4, {0, 1, 3, 4, 6}, {0, 0, 1, 2, 1, 3}, {2, 1, 3, 4, 5, 6});
}

/// The patched analysis must be indistinguishable from the from-scratch
/// oracle — including the doubles, which both sides compute with the same
/// code over the same level arrays.
void ExpectAnalysisEqual(const Analysis& got, const Analysis& want) {
  EXPECT_EQ(got.levels.level_of, want.levels.level_of);
  EXPECT_EQ(got.levels.level_ptr, want.levels.level_ptr);
  EXPECT_EQ(got.levels.order, want.levels.order);
  EXPECT_EQ(got.stats.name, want.stats.name);
  EXPECT_EQ(got.stats.rows, want.stats.rows);
  EXPECT_EQ(got.stats.nnz, want.stats.nnz);
  EXPECT_EQ(got.stats.avg_nnz_per_row, want.stats.avg_nnz_per_row);
  EXPECT_EQ(got.stats.num_levels, want.stats.num_levels);
  EXPECT_EQ(got.stats.avg_components_per_level,
            want.stats.avg_components_per_level);
  EXPECT_EQ(got.stats.max_level_size, want.stats.max_level_size);
  EXPECT_EQ(got.stats.parallel_granularity, want.stats.parallel_granularity);
  EXPECT_EQ(got.row_lengths.counts, want.row_lengths.counts);
  EXPECT_EQ(got.row_lengths.total, want.row_lengths.total);
  EXPECT_EQ(got.row_lengths.min_value, want.row_lengths.min_value);
  EXPECT_EQ(got.row_lengths.max_value, want.row_lengths.max_value);
  EXPECT_EQ(got.recommended, want.recommended);
}

TEST(DeltaBatchTest, KindSplitAndByteSize) {
  DeltaBatch batch;
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(batch.value_only());

  batch.UpdateValue(3, 1, 7.5);
  EXPECT_TRUE(batch.value_only());
  EXPECT_EQ(batch.structural_count(), 0u);

  batch.Insert(2, 0, 1.0);
  batch.Erase(3, 1);
  EXPECT_FALSE(batch.value_only());
  EXPECT_EQ(batch.structural_count(), 2u);
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.ByteSize(), 3 * sizeof(update::Delta));
}

TEST(DeltaBatchTest, ApplyToMatrixMutatesValuesAndPattern) {
  const Csr lower = HandMatrix();

  DeltaBatch batch;
  batch.UpdateValue(1, 0, 9.0);   // off-diagonal value overwrite
  batch.UpdateValue(2, 2, -4.0);  // diagonal overwrite (nonzero is legal)
  batch.Insert(2, 1, 8.0);        // new strictly-lower entry
  batch.Erase(3, 1);              // drop a strictly-lower entry
  auto mutated = update::ApplyToMatrix(lower, batch);
  ASSERT_TRUE(mutated.ok()) << mutated.status().ToString();

  const Csr expected(4, 4, {0, 1, 3, 5, 6}, {0, 0, 1, 1, 2, 3},
                     {2, 9, 3, 8, -4, 6});
  EXPECT_EQ(*mutated, expected);
  EXPECT_TRUE(mutated->IsLowerTriangularWithDiagonal());
  // The input is untouched (ApplyToMatrix returns a mutated copy).
  EXPECT_EQ(lower, HandMatrix());
}

TEST(DeltaBatchTest, ApplyToMatrixRejectsIllegalDeltas) {
  const Csr lower = HandMatrix();
  const auto expect_invalid = [&](const DeltaBatch& batch, const char* what) {
    auto result = update::ApplyToMatrix(lower, batch);
    ASSERT_FALSE(result.ok()) << what;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << what;
  };

  DeltaBatch out_of_range;
  out_of_range.UpdateValue(4, 0, 1.0);
  expect_invalid(out_of_range, "row out of range");

  DeltaBatch above_diagonal;
  above_diagonal.UpdateValue(1, 2, 1.0);
  expect_invalid(above_diagonal, "above the diagonal");

  DeltaBatch value_absent;
  value_absent.UpdateValue(2, 0, 1.0);
  expect_invalid(value_absent, "value update of an absent position");

  DeltaBatch zero_diagonal;
  zero_diagonal.UpdateValue(2, 2, 0.0);
  expect_invalid(zero_diagonal, "zero diagonal overwrite");

  DeltaBatch insert_present;
  insert_present.Insert(1, 0, 1.0);
  expect_invalid(insert_present, "insert of a present position");

  DeltaBatch insert_diagonal;
  insert_diagonal.Insert(2, 2, 1.0);
  expect_invalid(insert_diagonal, "insert on the diagonal");

  DeltaBatch erase_absent;
  erase_absent.Erase(2, 0);
  expect_invalid(erase_absent, "erase of an absent position");

  DeltaBatch erase_diagonal;
  erase_diagonal.Erase(1, 1);
  expect_invalid(erase_diagonal, "erase of the diagonal");
}

TEST(DeltaBatchTest, LaterDeltasSeeEarlierOnes) {
  const Csr lower = HandMatrix();

  // Insert-then-update of the same position is legal in one batch.
  DeltaBatch insert_then_update;
  insert_then_update.Insert(2, 0, 1.0);
  insert_then_update.UpdateValue(2, 0, 5.0);
  auto ok = update::ApplyToMatrix(lower, insert_then_update);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->RowVals(2)[0], 5.0);

  // Double-insert is not: the second insert sees the first.
  DeltaBatch double_insert;
  double_insert.Insert(2, 0, 1.0);
  double_insert.Insert(2, 0, 2.0);
  auto dup = update::ApplyToMatrix(lower, double_insert);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);

  // Erase-then-value of the erased position fails the same way.
  DeltaBatch erase_then_value;
  erase_then_value.Erase(1, 0);
  erase_then_value.UpdateValue(1, 0, 3.0);
  auto gone = update::ApplyToMatrix(lower, erase_then_value);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeltaBatchTest, MakeRandomBatchIsDeterministicAndApplies) {
  const Csr lower = MakeRandomLower({.rows = 200,
                                     .avg_strict_nnz_per_row = 3.0,
                                     .window = 0,
                                     .empty_row_fraction = 0.1,
                                     .seed = 61});
  for (const bool structural : {false, true}) {
    const DeltaBatch a = update::MakeRandomBatch(lower, 40, structural, 97);
    const DeltaBatch b = update::MakeRandomBatch(lower, 40, structural, 97);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.deltas()[i].kind, b.deltas()[i].kind);
      EXPECT_EQ(a.deltas()[i].row, b.deltas()[i].row);
      EXPECT_EQ(a.deltas()[i].col, b.deltas()[i].col);
      EXPECT_EQ(a.deltas()[i].value, b.deltas()[i].value);
    }
    EXPECT_EQ(a.value_only(), !structural);
    auto mutated = update::ApplyToMatrix(lower, a);
    ASSERT_TRUE(mutated.ok()) << mutated.status().ToString();
    EXPECT_TRUE(mutated->IsLowerTriangularWithDiagonal());
  }
}

/// Full shape scan of every row, independent of the shape Csr records.
bool RescanIsLowerTriangularWithDiagonal(const Csr& m) {
  if (m.rows() != m.cols()) return false;
  for (Idx r = 0; r < m.rows(); ++r) {
    const auto cols = m.RowCols(r);
    if (cols.empty() || cols.back() != r) return false;
    for (std::size_t j = 0; j + 1 < cols.size(); ++j) {
      if (cols[j] >= r) return false;
    }
  }
  return true;
}

/// Reference rebuild for a legal batch: bucket the deltas by row in a
/// std::map, replay each touched row into an ordered column -> value map,
/// then rebuild every row of the arrays.
Csr ReferenceApply(const Csr& lower, const DeltaBatch& batch) {
  std::map<Idx, std::map<Idx, Val>> rows;
  for (const update::Delta& d : batch.deltas()) {
    auto [it, fresh] = rows.try_emplace(d.row);
    if (fresh) {
      const auto cols = lower.RowCols(d.row);
      const auto vals = lower.RowVals(d.row);
      for (std::size_t j = 0; j < cols.size(); ++j) {
        it->second.emplace(cols[j], vals[j]);
      }
    }
    if (d.kind == DeltaKind::kErase) {
      it->second.erase(d.col);
    } else {
      it->second[d.col] = d.value;
    }
  }
  std::vector<Idx> row_ptr = {0};
  std::vector<Idx> col_idx;
  std::vector<Val> val;
  for (Idx i = 0; i < lower.rows(); ++i) {
    const auto it = rows.find(i);
    if (it != rows.end()) {
      for (const auto& [col, v] : it->second) {
        col_idx.push_back(col);
        val.push_back(v);
      }
    } else {
      const auto cols = lower.RowCols(i);
      const auto vals = lower.RowVals(i);
      col_idx.insert(col_idx.end(), cols.begin(), cols.end());
      val.insert(val.end(), vals.begin(), vals.end());
    }
    row_ptr.push_back(static_cast<Idx>(col_idx.size()));
  }
  return Csr(lower.rows(), lower.cols(), std::move(row_ptr),
             std::move(col_idx), std::move(val));
}

template <typename T>
std::vector<T> ToVector(std::span<const T> values) {
  return {values.begin(), values.end()};
}

/// Applies `batch` and checks the arrays against ReferenceApply exactly and
/// the recorded shape against a full rescan. Returns the applied matrix.
Csr ExpectMatchesReference(const Csr& lower, const DeltaBatch& batch,
                           const std::string& what) {
  auto mutated = update::ApplyToMatrix(lower, batch);
  EXPECT_TRUE(mutated.ok()) << what << ": " << mutated.status().ToString();
  if (!mutated.ok()) return lower;
  const Csr want = ReferenceApply(lower, batch);
  EXPECT_EQ(ToVector(mutated->row_ptr()), ToVector(want.row_ptr())) << what;
  EXPECT_EQ(ToVector(mutated->col_idx()), ToVector(want.col_idx())) << what;
  EXPECT_EQ(ToVector(mutated->val()), ToVector(want.val())) << what;
  EXPECT_EQ(mutated->IsLowerTriangularWithDiagonal(),
            RescanIsLowerTriangularWithDiagonal(*mutated))
      << what;
  return std::move(mutated).value();
}

TEST(DeltaBatchTest, ApplyToMatrixMatchesReferenceRebuildOnSeededBatches) {
  const std::vector<std::pair<std::string, Csr>> factors = {
      {"random", MakeRandomLower({.rows = 300,
                                  .avg_strict_nnz_per_row = 3.0,
                                  .window = 0,
                                  .empty_row_fraction = 0.2,
                                  .seed = 5})},
      {"band", MakeBanded({.rows = 300, .bandwidth = 10, .fill = 0.5,
                           .force_chain = true, .seed = 6})},
      {"levels", MakeLevelStructured({.num_levels = 12,
                                      .components_per_level = 25,
                                      .avg_nnz_per_row = 3.0,
                                      .size_jitter = 0.3,
                                      .interleave = true,
                                      .seed = 7})}};
  enum class Mix { kValue, kStructural, kMixed };
  int batches = 0;
  for (const auto& [name, factor] : factors) {
    ASSERT_TRUE(factor.IsLowerTriangularWithDiagonal()) << name;
    for (const Mix mix : {Mix::kValue, Mix::kStructural, Mix::kMixed}) {
      // Each batch applies to the previous batch's output, so patched
      // matrices are patched again and the recorded shape is carried along.
      Csr current = factor;
      for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        const int size = 1 + static_cast<int>(seed * 7 % 40);
        DeltaBatch batch = update::MakeRandomBatch(
            current, size, /*structural=*/mix != Mix::kValue, seed);
        if (mix == Mix::kMixed) {
          // Value updates of positions present after the structural part,
          // which may include entries that part just inserted.
          const DeltaBatch values = update::MakeRandomBatch(
              ReferenceApply(current, batch), size, false, seed + 1000);
          for (const update::Delta& d : values.deltas()) {
            batch.UpdateValue(d.row, d.col, d.value);
          }
        }
        current = ExpectMatchesReference(
            current, batch,
            name + " mix " + std::to_string(static_cast<int>(mix)) +
                " seed " + std::to_string(seed));
        ++batches;
      }
    }
  }
  EXPECT_GE(batches, 200);
}

TEST(DeltaBatchTest, ApplyToMatrixMatchesReferenceRebuildOnEdgeRows) {
  const Csr lower = MakeRandomLower({.rows = 40,
                                     .avg_strict_nnz_per_row = 3.0,
                                     .window = 0,
                                     .empty_row_fraction = 0.0,
                                     .seed = 8});
  const Idx last = lower.rows() - 1;
  ASSERT_GE(lower.RowLen(last), 2);

  DeltaBatch first_and_last;
  first_and_last.UpdateValue(0, 0, 3.0);
  first_and_last.UpdateValue(last, last, 4.0);
  const auto [absent_row, absent_col] = FindAbsentStrictLower(lower, last);
  ASSERT_EQ(absent_row, last);
  first_and_last.Insert(last, absent_col, 0.5);
  first_and_last.Erase(last, lower.RowCols(last)[0]);
  ExpectMatchesReference(lower, first_and_last, "row 0 and the last row");

  // Several deltas in one row, out of row order in the batch.
  const auto [row, col] = FindAbsentStrictLower(lower, 20);
  const auto [erase_row, erase_col] = FindPresentStrictLower(lower, 10);
  DeltaBatch one_row;
  one_row.Insert(row, col, 1.0);
  one_row.Erase(erase_row, erase_col);
  one_row.UpdateValue(row, col, 2.0);  // insert then update
  one_row.Insert(erase_row, erase_col, 3.0);  // erase then re-insert
  one_row.UpdateValue(row, row, 5.0);
  const Csr replayed = ExpectMatchesReference(lower, one_row, "one row");
  EXPECT_EQ(replayed.RowLen(erase_row), lower.RowLen(erase_row));

  // Cut a row down to its diagonal.
  const Idx cut = erase_row;
  DeltaBatch to_diagonal;
  const auto cols = lower.RowCols(cut);
  for (std::size_t j = 0; j + 1 < cols.size(); ++j) {
    to_diagonal.Erase(cut, cols[j]);
  }
  const Csr cut_down = ExpectMatchesReference(lower, to_diagonal, "cut");
  EXPECT_EQ(cut_down.RowLen(cut), 1);
  EXPECT_TRUE(cut_down.IsLowerTriangularWithDiagonal());
}

TEST(IncrementalAnalyzerTest, ValueOnlyReusesAnalysisUntouched) {
  const Csr lower = MakeRandomLower({.rows = 300,
                                     .avg_strict_nnz_per_row = 3.0,
                                     .window = 0,
                                     .empty_row_fraction = 0.1,
                                     .seed = 71});
  const auto before = std::make_shared<const Analysis>(Analyze(lower, "m"));
  const Analysis copy = *before;
  const DeltaBatch batch =
      update::MakeRandomBatch(lower, 25, /*structural=*/false, 72);

  IncrementalAnalyzer analyzer;
  auto result = analyzer.Apply(lower, before, batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->value_only);
  EXPECT_EQ(result->rows_releveled, 0);  // zero re-analysis on the fast path
  EXPECT_EQ(result->analysis_ms, 0.0);   // the analysis was shared untouched
  EXPECT_EQ(result->total_rows, lower.rows());

  auto oracle_matrix = update::ApplyToMatrix(lower, batch);
  ASSERT_TRUE(oracle_matrix.ok());
  EXPECT_EQ(result->matrix, *oracle_matrix);
  // Values changed but sparsity did not: the new epoch shares the very same
  // analysis object, unchanged, and it still matches the from-scratch oracle
  // of the mutated matrix.
  EXPECT_EQ(result->analysis.get(), before.get());
  ExpectAnalysisEqual(*result->analysis, copy);
  ExpectAnalysisEqual(*result->analysis, Analyze(*oracle_matrix, "m"));
}

TEST(IncrementalAnalyzerTest, StructuralMatchesFromScratchOracle) {
  std::vector<Csr> matrices;
  matrices.push_back(MakeRandomLower({.rows = 250,
                                      .avg_strict_nnz_per_row = 2.5,
                                      .window = 0,
                                      .empty_row_fraction = 0.2,
                                      .seed = 81}));
  matrices.push_back(MakeRandomLower({.rows = 250,
                                      .avg_strict_nnz_per_row = 4.0,
                                      .window = 16,
                                      .empty_row_fraction = 0.0,
                                      .seed = 82}));
  matrices.push_back(MakeBanded({.rows = 200, .bandwidth = 8, .fill = 0.6,
                                 .force_chain = true, .seed = 83}));

  IncrementalAnalyzer analyzer;
  for (const Csr& lower : matrices) {
    const auto before = std::make_shared<const Analysis>(Analyze(lower, "m"));
    for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
      // A 50-delta structural batch plus an explicit single insert and a
      // single erase, each validated against the oracle independently.
      std::vector<DeltaBatch> batches;
      batches.push_back(
          update::MakeRandomBatch(lower, 50, /*structural=*/true, seed));
      const auto [ins_row, ins_col] =
          FindAbsentStrictLower(lower, static_cast<Idx>(seed % 50));
      DeltaBatch insert_one;
      insert_one.Insert(ins_row, ins_col, 0.25);
      batches.push_back(insert_one);
      const auto [del_row, del_col] =
          FindPresentStrictLower(lower, static_cast<Idx>(seed % 50));
      DeltaBatch erase_one;
      erase_one.Erase(del_row, del_col);
      batches.push_back(erase_one);

      for (const DeltaBatch& batch : batches) {
        auto result = analyzer.Apply(lower, before, batch);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_FALSE(result->value_only);
        EXPECT_GE(result->rows_releveled, 1);
        EXPECT_LE(result->rows_releveled, result->total_rows);

        auto oracle_matrix = update::ApplyToMatrix(lower, batch);
        ASSERT_TRUE(oracle_matrix.ok());
        ASSERT_EQ(result->matrix, *oracle_matrix);
        ExpectAnalysisEqual(*result->analysis, Analyze(*oracle_matrix, "m"));
      }
    }
  }
}

TEST(IncrementalAnalyzerTest, ConeStaysLocalOnAChainedBand) {
  // On a chained band every row already depends on row-1, so adding one more
  // in-band dependency cannot change any level: the worklist pops exactly
  // the edited row, sees an unchanged level, and stops. This is the
  // incremental win the subsystem exists for — one row touched out of 400.
  const Csr lower = MakeBanded({.rows = 400, .bandwidth = 12, .fill = 0.5,
                                .force_chain = true, .seed = 91});
  const auto before = std::make_shared<const Analysis>(Analyze(lower, "band"));
  Idx row = 0;
  Idx col = 0;
  for (Idx i = 300; i < lower.rows() && row == 0; ++i) {
    for (Idx j = std::max<Idx>(0, i - 12); j + 1 < i; ++j) {
      if (!HasEntry(lower, i, j)) {
        row = i;
        col = j;
        break;
      }
    }
  }
  ASSERT_GT(row, 0) << "band unexpectedly full";

  DeltaBatch batch;
  batch.Insert(row, col, 0.1);
  IncrementalAnalyzer analyzer;
  auto result = analyzer.Apply(lower, before, batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_releveled, 1);
  EXPECT_EQ(result->total_rows, 400);
  auto oracle_matrix = update::ApplyToMatrix(lower, batch);
  ASSERT_TRUE(oracle_matrix.ok());
  ExpectAnalysisEqual(*result->analysis, Analyze(*oracle_matrix, "band"));
}

TEST(IncrementalAnalyzerTest, PersistentConsumerGraphSurvivesManyBatches) {
  Csr lower = MakeRandomLower({.rows = 220,
                               .avg_strict_nnz_per_row = 3.0,
                               .window = 0,
                               .empty_row_fraction = 0.15,
                               .seed = 101});
  auto analysis = std::make_shared<const Analysis>(Analyze(lower, "m"));
  update::ConsumerGraph graph = update::ConsumerGraph::Build(lower);

  IncrementalAnalyzer analyzer;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const DeltaBatch batch =
        update::MakeRandomBatch(lower, 20, /*structural=*/true, seed);
    auto result = analyzer.Apply(lower, analysis, batch, &graph);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto oracle_matrix = update::ApplyToMatrix(lower, batch);
    ASSERT_TRUE(oracle_matrix.ok());
    ASSERT_EQ(result->matrix, *oracle_matrix);
    ExpectAnalysisEqual(*result->analysis, Analyze(*oracle_matrix, "m"));
    lower = std::move(result->matrix);
    analysis = std::move(result->analysis);
  }

  // After five rounds of patching, the carried graph matches a fresh
  // transpose build of the final matrix list-for-list.
  const update::ConsumerGraph fresh = update::ConsumerGraph::Build(lower);
  ASSERT_EQ(graph.rows(), fresh.rows());
  for (Idx j = 0; j < graph.rows(); ++j) {
    const auto a = graph.Consumers(j);
    const auto b = fresh.Consumers(j);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "consumer list of column " << j << " diverged";
  }
}

/// Unit-lower factor whose row i holds the strictly-lower columns
/// strict[i] (ascending) plus the diagonal.
Csr FactorFromRows(const std::vector<std::vector<Idx>>& strict) {
  const Idx n = static_cast<Idx>(strict.size());
  std::vector<Idx> row_ptr = {0};
  std::vector<Idx> col_idx;
  std::vector<Val> val;
  for (Idx i = 0; i < n; ++i) {
    for (const Idx c : strict[static_cast<std::size_t>(i)]) {
      col_idx.push_back(c);
      val.push_back(0.5);
    }
    col_idx.push_back(i);
    val.push_back(1.0);
    row_ptr.push_back(static_cast<Idx>(col_idx.size()));
  }
  return Csr(n, n, std::move(row_ptr), std::move(col_idx), std::move(val));
}

/// Applies `batch` incrementally, checks the result against the from-scratch
/// oracle, and returns the patched analysis.
Analysis PatchAndCheck(const Csr& lower, const DeltaBatch& batch) {
  IncrementalAnalyzer analyzer;
  auto result = analyzer.Apply(
      lower, std::make_shared<const Analysis>(Analyze(lower, "m")), batch);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  auto oracle_matrix = update::ApplyToMatrix(lower, batch);
  EXPECT_TRUE(oracle_matrix.ok());
  EXPECT_EQ(result->matrix, *oracle_matrix);
  ExpectAnalysisEqual(*result->analysis, Analyze(*oracle_matrix, "m"));
  return *result->analysis;
}

TEST(IncrementalAnalyzerTest, TopLevelEmpties) {
  // A chain 0 <- 1 <- 2 <- 3 beside free rows 4 and 5: cutting row 3 loose
  // leaves level 3 empty, so the patch drops it.
  const Csr lower = FactorFromRows({{}, {0}, {1}, {2}, {}, {1}});
  ASSERT_EQ(Analyze(lower, "m").levels.num_levels(), 4);
  DeltaBatch batch;
  batch.Erase(3, 2);
  EXPECT_EQ(PatchAndCheck(lower, batch).levels.num_levels(), 3);

  // Cutting row 1 loose drops rows 1, 2, 3 and 5 a level each.
  DeltaBatch cut_low;
  cut_low.Erase(1, 0);
  EXPECT_EQ(PatchAndCheck(lower, cut_low).levels.num_levels(), 3);
}

TEST(IncrementalAnalyzerTest, NewTopLevelsAppear) {
  const Csr lower = FactorFromRows({{}, {0}, {1}, {}, {3}, {}});
  ASSERT_EQ(Analyze(lower, "m").levels.num_levels(), 3);
  // Row 3 hangs under the top row: it and its consumer row 4 rise to the
  // new levels 3 and 4.
  DeltaBatch batch;
  batch.Insert(3, 2, 0.25);
  EXPECT_EQ(PatchAndCheck(lower, batch).levels.num_levels(), 5);

  // Rises and falls in one batch: row 2 falls to level 0, row 5 rises.
  DeltaBatch mixed;
  mixed.Erase(2, 1);
  mixed.Insert(5, 4, 0.25);
  mixed.Insert(5, 2, 0.25);
  PatchAndCheck(lower, mixed);
}

TEST(IncrementalAnalyzerTest, LongestAndShortestRowsChangeLength) {
  // Row 4 is the unique longest row (5 entries, bucket [4, 7]); rows 0 and
  // 3 are the shortest (row 0 always is: it holds only its diagonal).
  const Csr lower = FactorFromRows({{}, {0}, {0, 1}, {}, {0, 1, 2, 3}});
  const Analysis before = Analyze(lower, "m");
  ASSERT_EQ(before.row_lengths.max_value, 5);
  ASSERT_EQ(before.row_lengths.min_value, 1);

  // The unique longest row shrinks to 4: the max follows it, in its bucket.
  DeltaBatch shrink;
  shrink.Erase(4, 3);
  EXPECT_EQ(PatchAndCheck(lower, shrink).row_lengths.max_value, 4);

  // It shrinks to 3 entries, tied with row 2, and the top bucket empties.
  DeltaBatch shrink_two;
  shrink_two.Erase(4, 3);
  shrink_two.Erase(4, 0);
  const Analysis emptied = PatchAndCheck(lower, shrink_two);
  EXPECT_EQ(emptied.row_lengths.max_value, 3);
  EXPECT_EQ(emptied.row_lengths.counts.size(), 2u);

  // Row 3, a shortest row, grows; row 0 keeps the shortest length.
  DeltaBatch grow_short;
  grow_short.Insert(3, 1, 0.25);
  EXPECT_EQ(PatchAndCheck(lower, grow_short).row_lengths.min_value, 1);

  // Two rows trade places as the longest.
  DeltaBatch trade;
  trade.Erase(4, 0);
  trade.Erase(4, 1);
  trade.Insert(3, 0, 0.25);
  trade.Insert(3, 1, 0.25);
  trade.Insert(3, 2, 0.25);
  EXPECT_EQ(PatchAndCheck(lower, trade).row_lengths.max_value, 4);
}

TEST(IncrementalAnalyzerTest, RowGrowsIntoANewTopBucket) {
  // The longest row has 3 entries (bucket [2, 3]); one insert makes it 4,
  // the first value of bucket [4, 7].
  const Csr lower = FactorFromRows({{}, {0}, {}, {0, 1}, {2}});
  ASSERT_EQ(Analyze(lower, "m").row_lengths.counts.size(), 2u);
  DeltaBatch batch;
  batch.Insert(3, 2, 0.25);
  const Analysis grown = PatchAndCheck(lower, batch);
  EXPECT_EQ(grown.row_lengths.counts.size(), 3u);
  EXPECT_EQ(grown.row_lengths.max_value, 4);
}

TEST(IncrementalAnalyzerTest, TwentyEpochChainMatchesOracleEveryEpoch) {
  // Structural and value-only epochs interleaved, each applied to the one
  // before it with the carried consumer graph, as the registry does.
  Csr lower = MakeRandomLower({.rows = 400,
                               .avg_strict_nnz_per_row = 2.5,
                               .window = 48,
                               .empty_row_fraction = 0.2,
                               .seed = 131});
  auto analysis = std::make_shared<const Analysis>(Analyze(lower, "m"));
  update::ConsumerGraph graph = update::ConsumerGraph::Build(lower);
  IncrementalAnalyzer analyzer;
  Idx levels_moved = 0;
  for (std::uint64_t epoch = 0; epoch < 20; ++epoch) {
    const bool structural = epoch % 3 != 2;
    const DeltaBatch batch = update::MakeRandomBatch(
        lower, 12, structural, /*seed=*/1000 + epoch);
    auto result = analyzer.Apply(lower, analysis, batch, &graph);
    ASSERT_TRUE(result.ok()) << "epoch " << epoch << ": "
                             << result.status().ToString();
    auto oracle_matrix = update::ApplyToMatrix(lower, batch);
    ASSERT_TRUE(oracle_matrix.ok());
    ASSERT_EQ(result->matrix, *oracle_matrix) << "epoch " << epoch;
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    ExpectAnalysisEqual(*result->analysis, Analyze(*oracle_matrix, "m"));
    if (structural) {
      EXPECT_NE(result->analysis.get(), analysis.get());
      levels_moved += result->analysis->levels.num_levels() !=
                      analysis->levels.num_levels();
    } else {
      EXPECT_EQ(result->analysis.get(), analysis.get());
    }
    lower = std::move(result->matrix);
    analysis = std::move(result->analysis);
  }
  EXPECT_GT(levels_moved, 0);  // the level count changed along the chain
}

// ISSUE satellite: across all algorithms and lower+upper factors, post-delta
// solves are bit-identical to a fresh registration of the mutated matrix —
// for value-only batches, a single insert, a single delete, and a randomized
// 50-delta batch, across seeds.
TEST(UpdateBitIdentityTest, AllAlgorithmsLowerAndUpperAllDeltaKinds) {
  const std::vector<Algorithm> algorithms = {
      Algorithm::kSerialCpu,    Algorithm::kLevelSetCpu,
      Algorithm::kSyncFreeCpu,  Algorithm::kLevelSet,
      Algorithm::kSyncFree,     Algorithm::kSyncFreeCsr,
      Algorithm::kCusparse,     Algorithm::kCapelliniTwoPhase,
      Algorithm::kCapellini,    Algorithm::kHybrid,
  };
  const Csr lower = MakeRandomLower({.rows = 96,
                                     .avg_strict_nnz_per_row = 2.5,
                                     .window = 12,
                                     .empty_row_fraction = 0.15,
                                     .seed = 111});

  for (const std::uint64_t seed : {3ull, 11ull}) {
    std::vector<std::pair<std::string, DeltaBatch>> scenarios;
    scenarios.emplace_back(
        "value_only",
        update::MakeRandomBatch(lower, 12, /*structural=*/false, seed));
    const auto [ins_row, ins_col] =
        FindAbsentStrictLower(lower, static_cast<Idx>(seed));
    DeltaBatch insert_one;
    insert_one.Insert(ins_row, ins_col, 0.5);
    scenarios.emplace_back("single_insert", insert_one);
    const auto [del_row, del_col] =
        FindPresentStrictLower(lower, static_cast<Idx>(seed));
    DeltaBatch erase_one;
    erase_one.Erase(del_row, del_col);
    scenarios.emplace_back("single_delete", erase_one);
    scenarios.emplace_back(
        "batch50",
        update::MakeRandomBatch(lower, 50, /*structural=*/true, seed + 1));

    for (const auto& [label, batch] : scenarios) {
      SCOPED_TRACE(label + " seed=" + std::to_string(seed));
      // Streamed path: register the original, apply the delta, solve on the
      // swapped-in epoch.
      MatrixRegistry registry;
      auto handle = registry.Register(lower, "m", TinyOptions());
      ASSERT_TRUE(handle.ok());
      auto report = registry.ApplyDelta(*handle, batch);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      auto entry = registry.Acquire(*handle);
      ASSERT_TRUE(entry.ok());
      // The seeded analysis counts as analyzed — no re-analysis happened.
      EXPECT_TRUE((*entry)->solver.analyzed());

      // Oracle path: a fresh registration of the mutated matrix.
      auto mutated = update::ApplyToMatrix(lower, batch);
      ASSERT_TRUE(mutated.ok());
      ASSERT_EQ((*entry)->solver.matrix(), *mutated);
      MatrixRegistry fresh_registry;
      auto fresh_handle =
          fresh_registry.Register(*mutated, "m", TinyOptions());
      ASSERT_TRUE(fresh_handle.ok());
      auto fresh = fresh_registry.Acquire(*fresh_handle);
      ASSERT_TRUE(fresh.ok());

      const ReferenceProblem problem = MakeReferenceProblem(*mutated, seed);
      const Csr upper = ReverseSystem(*mutated);
      std::vector<Val> upper_b(problem.b.size());
      ReverseVector(problem.b, upper_b);

      for (const Algorithm algorithm : algorithms) {
        SCOPED_TRACE(AlgorithmName(algorithm));
        auto streamed = (*entry)->solver.Solve(algorithm, problem.b);
        auto oracle = (*fresh)->solver.Solve(algorithm, problem.b);
        ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
        ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
        EXPECT_EQ(FnvChecksum(streamed->x), FnvChecksum(oracle->x));

        // Upper-factor leg: the same mutated system mapped onto its upper
        // form solves to the same bits through SolveUpperSystem.
        auto upper_solve =
            SolveUpperSystem(upper, upper_b, algorithm, TinyOptions());
        ASSERT_TRUE(upper_solve.ok()) << upper_solve.status().ToString();
        std::vector<Val> unreversed(upper_solve->x.size());
        ReverseVector(upper_solve->x, unreversed);
        EXPECT_EQ(FnvChecksum(unreversed), FnvChecksum(oracle->x));
      }
    }
  }
}

TEST(RegistryUpdateTest, EpochBumpAndDeltaLogByteAccounting) {
  MatrixRegistry registry;
  const Csr lower = MakeRandomLower({.rows = 150,
                                     .avg_strict_nnz_per_row = 3.0,
                                     .window = 0,
                                     .empty_row_fraction = 0.1,
                                     .seed = 121});
  auto handle = registry.Register(lower, "m", TinyOptions());
  ASSERT_TRUE(handle.ok());
  const std::size_t bytes_before = registry.Snapshot().resident_bytes;
  EXPECT_EQ((*registry.Peek(*handle))->epoch, 0u);

  // Value-only: same structure, so the footprint grows by exactly the delta
  // log (matrix + level arrays keep their sizes).
  const DeltaBatch value_batch =
      update::MakeRandomBatch(lower, 10, /*structural=*/false, 122);
  auto report = registry.ApplyDelta(*handle, value_batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->epoch, 1u);
  EXPECT_TRUE(report->value_only);
  EXPECT_EQ(report->rows_releveled, 0);
  EXPECT_EQ(report->analysis_ms, 0.0);  // value-only: no re-leveling ran
  EXPECT_EQ(report->total_rows, lower.rows());
  EXPECT_EQ(report->delta_bytes, value_batch.ByteSize());
  EXPECT_EQ(report->delta_log_bytes, value_batch.ByteSize());
  EXPECT_EQ(registry.Snapshot().resident_bytes,
            bytes_before + value_batch.ByteSize());
  EXPECT_EQ(registry.Snapshot().updates, 1u);

  // Structural: epoch climbs, the log accumulates across epochs.
  const Csr after_value = (*registry.Peek(*handle))->solver.matrix();
  const DeltaBatch structural_batch =
      update::MakeRandomBatch(after_value, 10, /*structural=*/true, 123);
  auto second = registry.ApplyDelta(*handle, structural_batch);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->epoch, 2u);
  EXPECT_FALSE(second->value_only);
  EXPECT_GE(second->rows_releveled, 1);
  EXPECT_EQ(second->delta_log_bytes,
            value_batch.ByteSize() + structural_batch.ByteSize());
  EXPECT_GT(second->analysis_ms, 0.0);  // the cone re-level was timed
  EXPECT_LE(second->analysis_ms, second->update_ms);
  EXPECT_EQ(registry.Snapshot().updates, 2u);

  // The resident entry is the mutated matrix, already analyzed, and its
  // analysis_ms is THIS epoch's incremental re-level time — not a verbatim
  // copy of the cold registration's full-analysis time (the PR-9 S3 bug).
  auto entry = registry.Acquire(*handle);
  ASSERT_TRUE(entry.ok());
  auto oracle = update::ApplyToMatrix(after_value, structural_batch);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ((*entry)->solver.matrix(), *oracle);
  EXPECT_TRUE((*entry)->solver.analyzed());
  EXPECT_EQ((*entry)->analysis_ms, second->analysis_ms);
}

TEST(RegistryUpdateTest, InvalidBatchLeavesEntryUntouched) {
  MatrixRegistry registry;
  const Csr lower = HandMatrix();
  auto handle = registry.Register(lower, "hand", TinyOptions());
  ASSERT_TRUE(handle.ok());

  DeltaBatch bad;
  bad.Insert(1, 0, 1.0);  // already present
  auto report = registry.ApplyDelta(*handle, bad);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);

  auto entry = registry.Peek(*handle);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->epoch, 0u);
  EXPECT_EQ((*entry)->delta_log_bytes, 0u);
  EXPECT_EQ((*entry)->solver.matrix(), lower);
  EXPECT_EQ(registry.Snapshot().updates, 0u);
}

TEST(RegistryUpdateTest, UnknownHandleIsNotFound) {
  MatrixRegistry registry;
  DeltaBatch batch;
  batch.UpdateValue(0, 0, 1.0);
  auto report = registry.ApplyDelta(12345, batch);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

TEST(RegistryUpdateTest, OverBudgetUpdateKeepsOldEpochResident) {
  const Csr lower = MakeRandomLower({.rows = 120,
                                     .avg_strict_nnz_per_row = 3.0,
                                     .window = 0,
                                     .empty_row_fraction = 0.1,
                                     .seed = 131});
  // Measure the exact footprint, then give the registry a budget the entry
  // fills completely: any delta log pushes the updated entry past it.
  std::size_t footprint = 0;
  {
    MatrixRegistry probe;
    auto probe_handle = probe.Register(lower, "probe", TinyOptions());
    ASSERT_TRUE(probe_handle.ok());
    footprint = probe.Snapshot().resident_bytes;
  }
  MatrixRegistry registry(RegistryOptions{.byte_budget = footprint});
  auto handle = registry.Register(lower, "m", TinyOptions());
  ASSERT_TRUE(handle.ok());

  const DeltaBatch batch =
      update::MakeRandomBatch(lower, 5, /*structural=*/false, 132);
  auto report = registry.ApplyDelta(*handle, batch);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);

  // The old epoch stayed resident and still solves.
  auto entry = registry.Acquire(*handle);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->epoch, 0u);
  EXPECT_EQ((*entry)->solver.matrix(), lower);
  const ReferenceProblem problem = MakeReferenceProblem(lower, 133);
  auto solve = (*entry)->solver.Solve(Algorithm::kSerialCpu, problem.b);
  ASSERT_TRUE(solve.ok());
  EXPECT_LE(MaxRelativeError(solve->x, problem.x_true), 1e-10);
}

TEST(RegistryUpdateTest, UpdateCarriesLearnedCostState) {
  MatrixRegistry registry;
  const Csr lower = MakeRandomLower({.rows = 150,
                                     .avg_strict_nnz_per_row = 3.0,
                                     .window = 0,
                                     .empty_row_fraction = 0.1,
                                     .seed = 141});
  auto handle = registry.Register(lower, "m", TinyOptions());
  ASSERT_TRUE(handle.ok());
  auto before = registry.Peek(*handle);
  ASSERT_TRUE(before.ok());
  (*before)->cost.Observe(123.0);
  (*before)->cost.Observe(41.0);
  ASSERT_EQ((*before)->cost.samples(), 2u);
  const double learned = (*before)->cost.EstimateMs();
  ASSERT_NE(learned, (*before)->solver.CostHintMs());

  // A structural batch (re-levels a cone) and a value-only one: the seed,
  // the EWMA and the sample count carry over to each new epoch unchanged.
  for (const bool structural : {true, false}) {
    const Csr current = (*registry.Peek(*handle))->solver.matrix();
    auto report = registry.ApplyDelta(
        *handle, update::MakeRandomBatch(current, 8, structural, 142));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    auto after = registry.Peek(*handle);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ((*after)->epoch, report->epoch);
    EXPECT_EQ((*after)->cost.samples(), 2u);
    EXPECT_EQ((*after)->cost.EstimateMs(), learned);
  }

  // The next observation refines the carried EWMA instead of replacing a
  // fresh seed, and the previous epoch's model stays as it was.
  auto latest = registry.Peek(*handle);
  ASSERT_TRUE(latest.ok());
  (*latest)->cost.Observe(learned);
  EXPECT_EQ((*latest)->cost.samples(), 3u);
  EXPECT_EQ((*latest)->cost.EstimateMs(), learned);
  EXPECT_EQ((*before)->cost.samples(), 2u);

  // A cold registration of the same factor still starts from the seed.
  auto fresh = registry.Register(lower, "fresh", TinyOptions());
  ASSERT_TRUE(fresh.ok());
  auto fresh_entry = registry.Peek(*fresh);
  ASSERT_TRUE(fresh_entry.ok());
  EXPECT_EQ((*fresh_entry)->cost.samples(), 0u);
  EXPECT_EQ((*fresh_entry)->cost.EstimateMs(),
            (*fresh_entry)->solver.CostHintMs());
}

// Tentpole acceptance: a solve admitted before ApplyDelta finishes on the
// pre-update snapshot while a solve admitted after runs on the new epoch —
// no barrier, no blocking, both bit-exact for their epoch.
TEST(ServiceUpdateTest, InFlightSolvesFinishOnTheirEpoch) {
  MatrixRegistry registry;
  const Csr lower = MakeRandomLower({.rows = 150,
                                     .avg_strict_nnz_per_row = 3.0,
                                     .window = 0,
                                     .empty_row_fraction = 0.1,
                                     .seed = 151});
  auto handle = registry.Register(lower, "m", TinyOptions());
  ASSERT_TRUE(handle.ok());

  ServiceOptions options = SolveService::DeterministicOptions();
  options.start_paused = true;  // both requests queue before any solve runs
  SolveService service(&registry, options);

  const ReferenceProblem pre = MakeReferenceProblem(lower, 152);
  serve::RequestOptions serial;
  serial.algorithm = Algorithm::kSerialCpu;
  auto before_future = service.Submit(*handle, pre.b, serial);
  ASSERT_TRUE(before_future.ok()) << before_future.status().ToString();

  // Swap the epoch while the first request is still queued.
  const DeltaBatch batch =
      update::MakeRandomBatch(lower, 20, /*structural=*/true, 153);
  auto report = service.ApplyDelta(*handle, batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->epoch, 1u);

  auto mutated = update::ApplyToMatrix(lower, batch);
  ASSERT_TRUE(mutated.ok());
  const ReferenceProblem post = MakeReferenceProblem(*mutated, 154);
  auto after_future = service.Submit(*handle, post.b, serial);
  ASSERT_TRUE(after_future.ok()) << after_future.status().ToString();

  service.Start();
  serve::ServeResult before_result = before_future->get();
  serve::ServeResult after_result = after_future->get();
  ASSERT_TRUE(before_result.status.ok()) << before_result.status.ToString();
  ASSERT_TRUE(after_result.status.ok()) << after_result.status.ToString();

  // The first solve saw the PRE-update matrix (its EntryRef pinned epoch 0),
  // the second the post-update one — byte-compare both against direct solves
  // of the matching epoch's matrix.
  Solver pre_solver(lower, TinyOptions());
  Solver post_solver(*mutated, TinyOptions());
  auto pre_direct = pre_solver.Solve(Algorithm::kSerialCpu, pre.b);
  auto post_direct = post_solver.Solve(Algorithm::kSerialCpu, post.b);
  ASSERT_TRUE(pre_direct.ok());
  ASSERT_TRUE(post_direct.ok());
  EXPECT_EQ(FnvChecksum(before_result.solve.x), FnvChecksum(pre_direct->x));
  EXPECT_EQ(FnvChecksum(after_result.solve.x), FnvChecksum(post_direct->x));

  // Exactly-once accounting, both ledgers: the PR-4 request invariant and
  // the update invariant next to it.
  service.Shutdown();
  const auto totals = service.stats().totals();
  EXPECT_EQ(totals.requests + totals.failures + totals.deadline_misses +
                totals.rejections,
            2u);
  EXPECT_EQ(totals.requests, 2u);
  EXPECT_EQ(totals.updates_value + totals.updates_structural +
                totals.update_rejections,
            1u);
  EXPECT_EQ(totals.updates_structural, 1u);
  EXPECT_EQ(totals.update_rows_releveled,
            static_cast<std::uint64_t>(report->rows_releveled));
}

// Coalescing groups requests by the epoch they pinned, not by handle: a
// request admitted after an ApplyDelta must never ride the launch (and the
// verification) of a request pinned to the previous epoch's matrix.
TEST(ServiceUpdateTest, CoalescingNeverMixesEpochs) {
  MatrixRegistry registry;
  const Csr lower = MakeRandomLower({.rows = 150,
                                     .avg_strict_nnz_per_row = 3.0,
                                     .window = 0,
                                     .empty_row_fraction = 0.1,
                                     .seed = 181});
  auto handle = registry.Register(lower, "m", TinyOptions());
  ASSERT_TRUE(handle.ok());

  ServiceOptions options;
  options.workers = 1;
  options.max_batch = 4;
  options.start_paused = true;  // everything queues before any solve runs
  options.reliable = true;
  SolveService service(&registry, options);

  serve::RequestOptions capellini;
  capellini.algorithm = Algorithm::kCapellini;
  // Epochs of the queued requests: 0, 0, 1, 2 — each of the last two
  // submits follows a value-only update.
  std::vector<ReferenceProblem> problems;
  std::vector<std::future<serve::ServeResult>> futures;
  for (const bool update_first : {false, false, true, true}) {
    const std::uint64_t seed = 182 + futures.size();
    if (update_first) {
      const Csr current = (*registry.Peek(*handle))->solver.matrix();
      ASSERT_TRUE(service
                      .ApplyDelta(*handle,
                                  update::MakeRandomBatch(
                                      current, 12, /*structural=*/false, seed))
                      .ok());
    }
    problems.push_back(MakeReferenceProblem(
        (*registry.Peek(*handle))->solver.matrix(), seed));
    auto submitted = service.Submit(*handle, problems.back().b, capellini);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(*submitted));
  }
  service.Start();

  std::vector<serve::ServeResult> results;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    results.push_back(futures[i].get());
    const serve::ServeResult& result = results.back();
    ASSERT_TRUE(result.status.ok()) << i << ": " << result.status.ToString();
    EXPECT_TRUE(result.verified) << i;
    EXPECT_LE(MaxRelativeError(result.solve.x, problems[i].x_true), 1e-10)
        << "request " << i << " was solved against another epoch's matrix";
  }
  // The two epoch-0 requests still share one launch; the others run alone.
  EXPECT_EQ(results[0].batch_size, 2);
  EXPECT_EQ(results[1].dequeue_seq, results[0].dequeue_seq);
  EXPECT_EQ(results[2].batch_size, 1);
  EXPECT_EQ(results[3].batch_size, 1);
  EXPECT_NE(results[2].dequeue_seq, results[3].dequeue_seq);
  service.Shutdown();
}

TEST(ServiceUpdateTest, ExactlyOnceUpdateAccountingIncludingRejections) {
  MatrixRegistry registry;
  const Csr lower = HandMatrix();
  auto handle = registry.Register(lower, "hand", TinyOptions());
  ASSERT_TRUE(handle.ok());
  SolveService service(&registry, SolveService::DeterministicOptions());

  DeltaBatch value_batch;
  value_batch.UpdateValue(1, 0, 2.5);
  ASSERT_TRUE(service.ApplyDelta(*handle, value_batch).ok());

  DeltaBatch structural_batch;
  structural_batch.Insert(2, 0, 0.5);
  ASSERT_TRUE(service.ApplyDelta(*handle, structural_batch).ok());

  DeltaBatch bad_batch;
  bad_batch.Erase(3, 0);  // absent -> kInvalidArgument
  auto bad = service.ApplyDelta(*handle, bad_batch);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  auto missing = service.ApplyDelta(9999, value_batch);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  service.Shutdown();
  auto after_shutdown = service.ApplyDelta(*handle, value_batch);
  ASSERT_FALSE(after_shutdown.ok());
  EXPECT_EQ(after_shutdown.status().code(), StatusCode::kFailedPrecondition);

  // Five calls, five records: one value, one structural, three rejections.
  const auto totals = service.stats().totals();
  EXPECT_EQ(totals.updates_value, 1u);
  EXPECT_EQ(totals.updates_structural, 1u);
  EXPECT_EQ(totals.update_rejections, 3u);
  EXPECT_EQ(totals.updates_value + totals.updates_structural +
                totals.update_rejections,
            5u);
  EXPECT_EQ(totals.update_delta_bytes,
            value_batch.ByteSize() + structural_batch.ByteSize());
}

TEST(ReplayUpdateTest, MixedTraceJsonRoundTrips) {
  serve::RequestTrace trace;
  serve::TraceRequest solve_a;
  solve_a.kind = serve::TraceEventKind::kSolve;
  solve_a.matrix = 0;
  solve_a.seed = 5;
  solve_a.deadline_ms = 2.5;
  trace.requests.push_back(solve_a);
  serve::TraceRequest structural_update;
  structural_update.kind = serve::TraceEventKind::kUpdate;
  structural_update.matrix = 0;
  structural_update.seed = 9;
  structural_update.update_deltas = 8;
  structural_update.structural = true;
  trace.requests.push_back(structural_update);
  serve::TraceRequest value_update;
  value_update.kind = serve::TraceEventKind::kUpdate;
  value_update.matrix = 2;
  value_update.seed = 10;
  value_update.update_deltas = 3;
  value_update.structural = false;
  trace.requests.push_back(value_update);
  serve::TraceRequest solve_b;
  solve_b.kind = serve::TraceEventKind::kSolve;
  solve_b.matrix = 1;
  solve_b.seed = 6;
  trace.requests.push_back(solve_b);

  const std::string path = testing::TempDir() + "update_trace_roundtrip.json";
  ASSERT_TRUE(serve::WriteTraceJson(trace, path).ok());
  auto read = serve::ReadTraceJson(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->requests.size(), trace.requests.size());
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(read->requests[i].kind, trace.requests[i].kind);
    EXPECT_EQ(read->requests[i].matrix, trace.requests[i].matrix);
    EXPECT_EQ(read->requests[i].seed, trace.requests[i].seed);
    EXPECT_EQ(read->requests[i].deadline_ms, trace.requests[i].deadline_ms);
    EXPECT_EQ(read->requests[i].update_deltas,
              trace.requests[i].update_deltas);
    EXPECT_EQ(read->requests[i].structural, trace.requests[i].structural);
  }
  std::remove(path.c_str());
}

TEST(ReplayUpdateTest, InterleaveUpdatesIsDeterministicAndTargetsHotFactors) {
  const serve::RequestTrace base = serve::GenerateZipfTrace(60, 4, 1.1, 161);
  serve::RequestTrace a = base;
  serve::RequestTrace b = base;
  serve::InterleaveUpdates(a, 0.4, 6, 0.5, 162);
  serve::InterleaveUpdates(b, 0.4, 6, 0.5, 162);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  EXPECT_GT(a.requests.size(), base.requests.size());

  std::size_t updates = 0;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].kind, b.requests[i].kind);
    EXPECT_EQ(a.requests[i].matrix, b.requests[i].matrix);
    EXPECT_EQ(a.requests[i].seed, b.requests[i].seed);
    EXPECT_EQ(a.requests[i].structural, b.requests[i].structural);
    if (a.requests[i].kind != serve::TraceEventKind::kUpdate) continue;
    ++updates;
    EXPECT_EQ(a.requests[i].update_deltas, 6);
    // Every update follows a solve of the SAME matrix: hot factors get
    // updated in proportion to their traffic.
    ASSERT_GT(i, 0u);
    EXPECT_EQ(a.requests[i - 1].kind, serve::TraceEventKind::kSolve);
    EXPECT_EQ(a.requests[i - 1].matrix, a.requests[i].matrix);
  }
  EXPECT_GT(updates, 0u);
}

TEST(ReplayUpdateTest, MixedTraceReplayVerifiesEverySolution) {
  MatrixRegistry registry;
  std::vector<serve::MatrixHandle> handles;
  for (std::uint64_t seed = 171; seed < 174; ++seed) {
    const Csr lower = MakeRandomLower({.rows = 120,
                                       .avg_strict_nnz_per_row = 3.0,
                                       .window = 0,
                                       .empty_row_fraction = 0.1,
                                       .seed = seed});
    auto handle = registry.Register(
        lower, std::string("m").append(std::to_string(seed)), TinyOptions());
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }
  SolveService service(&registry, SolveService::DeterministicOptions());

  serve::RequestTrace trace = serve::GenerateZipfTrace(30, 3, 1.1, 175);
  serve::InterleaveUpdates(trace, 0.4, 6, 0.5, 176);
  std::size_t solve_events = 0;
  std::size_t update_events = 0;
  for (const auto& request : trace.requests) {
    (request.kind == serve::TraceEventKind::kSolve ? solve_events
                                                   : update_events)++;
  }
  ASSERT_GT(update_events, 0u);

  auto report = serve::ReplayTrace(service, handles, trace, {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->submitted, solve_events);
  EXPECT_EQ(report->completed, solve_events);
  EXPECT_EQ(report->wrong, 0u);  // every solution verified vs its epoch
  EXPECT_EQ(report->failed, 0u);
  EXPECT_EQ(report->rejected, 0u);
  EXPECT_EQ(report->updates, update_events);
  EXPECT_EQ(report->updates_rejected, 0u);

  const auto totals = service.stats().totals();
  EXPECT_EQ(totals.updates_value + totals.updates_structural,
            report->updates);
  EXPECT_EQ(totals.update_rejections, report->updates_rejected);
  EXPECT_EQ(totals.update_rows_releveled, report->rows_releveled);
}

TEST(StatsUpdateTest, TableAndJsonCarryUpdateCounters) {
  MatrixRegistry registry;
  const Csr lower = HandMatrix();
  auto handle = registry.Register(lower, "hand", TinyOptions());
  ASSERT_TRUE(handle.ok());
  SolveService service(&registry, SolveService::DeterministicOptions());

  DeltaBatch value_batch;
  value_batch.UpdateValue(1, 0, 2.5);
  ASSERT_TRUE(service.ApplyDelta(*handle, value_batch).ok());
  DeltaBatch structural_batch;
  structural_batch.Insert(2, 0, 0.5);
  ASSERT_TRUE(service.ApplyDelta(*handle, structural_batch).ok());
  DeltaBatch bad_batch;
  bad_batch.Erase(3, 0);
  ASSERT_FALSE(service.ApplyDelta(*handle, bad_batch).ok());

  const serve::RegistrySnapshot snapshot = registry.Snapshot();
  const std::string table = service.stats().ToTable(&snapshot);
  EXPECT_NE(
      table.find("streaming updates: value_only=1 structural=1 rejected=1"),
      std::string::npos)
      << table;

  const std::string text = service.stats().ToJson(&snapshot);
  auto json = ParseJson(text);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const auto int_at = [](const JsonValue& object, const char* key) {
    std::int64_t value = -1;
    const JsonValue* member = object.Find(key);
    return member != nullptr && member->Get(value) ? value : -1;
  };
  EXPECT_EQ(int_at(*json, "updates_value"), 1) << text;
  EXPECT_EQ(int_at(*json, "updates_structural"), 1);
  EXPECT_EQ(int_at(*json, "update_rejections"), 1);
  EXPECT_NE(json->Find("update_rows_releveled"), nullptr);
  EXPECT_NE(json->Find("update_delta_bytes"), nullptr);
  EXPECT_NE(json->Find("update_analysis_ms"), nullptr);
  const JsonValue* registry_view = json->Find("registry");
  ASSERT_NE(registry_view, nullptr) << text;
  EXPECT_EQ(int_at(*registry_view, "updates"), 2);
  EXPECT_NE(registry_view->Find("analysis_cache_hits"), nullptr);
  EXPECT_NE(table.find("relevel_ms="), std::string::npos) << table;
}

}  // namespace
}  // namespace capellini

// google-benchmark microbenchmarks for the HOST solvers (real CPU execution,
// real wall-clock): serial, level-set with threads, sync-free with atomics,
// plus the level-set preprocessing cost itself, the residual check that
// follows every verified solve, and the matrix rebuild and incremental
// re-analysis of a streaming update. These complement the simulated device
// numbers with measurements a user can reproduce natively.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/analysis.h"
#include "core/verify.h"
#include "gen/banded.h"
#include "gen/level_structured.h"
#include "gen/random_lower.h"
#include "graph/levels.h"
#include "host/levelset_cpu.h"
#include "host/serial.h"
#include "host/syncfree_cpu.h"
#include "matrix/triangular.h"
#include "update/delta.h"
#include "update/incremental.h"

namespace capellini {
namespace {

Csr BenchMatrix(int kind, Idx rows) {
  switch (kind) {
    case 0:  // wide levels, short rows (Capellini territory)
      return MakeLevelStructured({.num_levels = std::max<Idx>(4, rows / 4096),
                                  .components_per_level = 4096,
                                  .avg_nnz_per_row = 3.0,
                                  .size_jitter = 0.2,
                                  .interleave = false,
                                  .seed = 1});
    case 1:  // banded FEM-like
      return MakeBanded({.rows = rows, .bandwidth = 32, .fill = 0.8,
                         .force_chain = true, .seed = 2});
    default:  // random prefix references
      return MakeRandomLower({.rows = rows, .avg_strict_nnz_per_row = 4.0,
                              .window = 0, .empty_row_fraction = 0.2,
                              .seed = 3});
  }
}

void BM_HostSerial(benchmark::State& state) {
  const Csr matrix = BenchMatrix(static_cast<int>(state.range(0)),
                                 static_cast<Idx>(state.range(1)));
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 7);
  std::vector<Val> x(problem.b.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(host::SolveSerial(matrix, problem.b, x));
  }
  state.counters["gflops"] = benchmark::Counter(
      2.0 * static_cast<double>(matrix.nnz()) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HostSerial)
    ->Args({0, 1 << 15})
    ->Args({1, 1 << 15})
    ->Args({2, 1 << 15});

void BM_HostLevelSet(benchmark::State& state) {
  const Csr matrix = BenchMatrix(static_cast<int>(state.range(0)),
                                 static_cast<Idx>(state.range(1)));
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 7);
  const LevelSets levels = ComputeLevelSets(matrix);
  std::vector<Val> x(problem.b.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        host::SolveLevelSetCpu(matrix, problem.b, x, &levels));
  }
  state.counters["gflops"] = benchmark::Counter(
      2.0 * static_cast<double>(matrix.nnz()) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HostLevelSet)->Args({0, 1 << 15})->Args({1, 1 << 15});

void BM_HostSyncFree(benchmark::State& state) {
  const Csr matrix = BenchMatrix(static_cast<int>(state.range(0)),
                                 static_cast<Idx>(state.range(1)));
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 7);
  std::vector<Val> x(problem.b.size());
  host::SyncFreeCpuOptions options;
  options.num_threads = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        host::SolveSyncFreeCpu(matrix, problem.b, x, options));
  }
  state.counters["gflops"] = benchmark::Counter(
      2.0 * static_cast<double>(matrix.nnz()) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HostSyncFree)->Args({0, 1 << 15})->Args({2, 1 << 15});

void BM_LevelSetPreprocessing(benchmark::State& state) {
  const Csr matrix = BenchMatrix(static_cast<int>(state.range(0)),
                                 static_cast<Idx>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeLevelSets(matrix));
  }
}
BENCHMARK(BM_LevelSetPreprocessing)->Args({0, 1 << 15})->Args({1, 1 << 15});

/// A 2^17-row random-prefix factor shaped like the largest factor
/// perfbench's update_mix updates.
Csr UpdateFactor() {
  return MakeRandomLower({.rows = 1 << 17,
                          .avg_strict_nnz_per_row = 2.5,
                          .window = 0,
                          .empty_row_fraction = 0.3,
                          .seed = 3});
}

// VerifySolution of a serial solve's x on the update factor: the two vector
// scans (||x||∞, ||b||∞ and finiteness) plus the CSR residual pass.
void BM_VerifySolution(benchmark::State& state) {
  const Csr matrix = UpdateFactor();
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 7);
  std::vector<Val> x(problem.b.size());
  if (!host::SolveSerial(matrix, problem.b, x).ok()) {
    state.SkipWithError("serial solve failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(VerifySolution(matrix, problem.b, x));
  }
}
BENCHMARK(BM_VerifySolution)->Unit(benchmark::kMicrosecond);

// One ApplyDelta's matrix rebuild: 8-delta batches, value-only (0) or
// structural (1), on the update factor. Every batch applies to the same
// factor, so each iteration does the same work.
void BM_ApplyToMatrix(benchmark::State& state) {
  const bool structural = state.range(0) != 0;
  const Csr matrix = UpdateFactor();
  std::vector<update::DeltaBatch> batches;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    batches.push_back(update::MakeRandomBatch(matrix, 8, structural, seed));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    auto mutated =
        update::ApplyToMatrix(matrix, batches[next++ % batches.size()]);
    benchmark::DoNotOptimize(mutated);
  }
}
BENCHMARK(BM_ApplyToMatrix)
    ->ArgName("structural")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

/// The batch that undoes `batch` on `lower`: inserts become erases, and
/// erases and value overwrites restore `lower`'s values. MakeRandomBatch
/// keeps coordinates distinct, so the order of the undo does not matter.
update::DeltaBatch Undo(const Csr& lower, const update::DeltaBatch& batch) {
  const auto value_at = [&](Idx row, Idx col) {
    const auto cols = lower.RowCols(row);
    const auto at = std::lower_bound(cols.begin(), cols.end(), col);
    return lower.RowVals(row)[static_cast<std::size_t>(at - cols.begin())];
  };
  update::DeltaBatch undo;
  for (const update::Delta& d : batch.deltas()) {
    switch (d.kind) {
      case update::DeltaKind::kInsert:
        undo.Erase(d.row, d.col);
        break;
      case update::DeltaKind::kErase:
        undo.Insert(d.row, d.col, value_at(d.row, d.col));
        break;
      case update::DeltaKind::kValue:
        undo.UpdateValue(d.row, d.col, value_at(d.row, d.col));
        break;
    }
  }
  return undo;
}

// One IncrementalAnalyzer::Apply, as ApplyDelta runs it: the matrix rebuild
// plus the shared (value-only, 0) or patched (structural, 1) analysis, on
// 8-delta batches against the update factor with its consumer graph carried
// along. Iterations alternate a batch and its undo, so the factor and the
// graph return to the start every second iteration.
void BM_IncrementalApply(benchmark::State& state) {
  const bool structural = state.range(0) != 0;
  const Csr base = UpdateFactor();
  const auto base_analysis =
      std::make_shared<const Analysis>(Analyze(base, "update-factor"));
  const update::DeltaBatch forward =
      update::MakeRandomBatch(base, 8, structural, 1);
  const update::DeltaBatch backward = Undo(base, forward);
  update::ConsumerGraph graph = update::ConsumerGraph::Build(base);
  update::IncrementalAnalyzer analyzer;
  auto there = analyzer.Apply(base, base_analysis, forward, &graph);
  if (!there.ok() ||
      !analyzer.Apply(there->matrix, there->analysis, backward, &graph).ok()) {
    state.SkipWithError("batch or its undo did not apply");
    return;
  }
  bool at_base = true;
  for (auto _ : state) {
    auto result =
        at_base ? analyzer.Apply(base, base_analysis, forward, &graph)
                : analyzer.Apply(there->matrix, there->analysis, backward,
                                 &graph);
    benchmark::DoNotOptimize(result);
    at_base = !at_base;
  }
}
BENCHMARK(BM_IncrementalApply)
    ->ArgName("structural")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace capellini

BENCHMARK_MAIN();

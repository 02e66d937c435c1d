// google-benchmark microbenchmarks for the HOST solvers (real CPU execution,
// real wall-clock): serial, level-set with threads, sync-free with atomics,
// plus the level-set preprocessing cost itself and the matrix rebuild of a
// streaming update. These complement the simulated device numbers with
// measurements a user can reproduce natively.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "gen/banded.h"
#include "gen/level_structured.h"
#include "gen/random_lower.h"
#include "graph/levels.h"
#include "host/levelset_cpu.h"
#include "host/serial.h"
#include "host/syncfree_cpu.h"
#include "matrix/triangular.h"
#include "update/delta.h"

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

// One ApplyDelta's matrix rebuild: 8-delta batches, value-only (0) or
// structural (1), on a 2^17-row random-prefix factor shaped like the largest
// factor perfbench's update_mix updates. Every batch applies to the same
// factor, so each iteration does the same work.
void BM_ApplyToMatrix(benchmark::State& state) {
  const bool structural = state.range(0) != 0;
  const Csr matrix = MakeRandomLower({.rows = 1 << 17,
                                      .avg_strict_nnz_per_row = 2.5,
                                      .window = 0,
                                      .empty_row_fraction = 0.3,
                                      .seed = 3});
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

}  // namespace
}  // namespace capellini

BENCHMARK_MAIN();

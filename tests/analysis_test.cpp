// Tests for the preprocessing-as-a-kernel stack (PR 9): on-device level-set
// analysis vs the host oracle, analysis persistence (round-trip, corruption,
// staleness), warm registry registrations that run zero host Analyze()
// sweeps, and the end-to-end level-reorder autotuning decision.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/autotune.h"
#include "core/solver.h"
#include "gen/corpus.h"
#include "gen/level_structured.h"
#include "graph/levels.h"
#include "kernels/analyze.h"
#include "matrix/triangular.h"
#include "serve/persist.h"
#include "serve/registry.h"
#include "sim/config.h"

namespace capellini {
namespace {

Csr TestMatrix(std::uint64_t seed) {
  return MakeLevelStructured({.num_levels = 6,
                              .components_per_level = 40,
                              .avg_nnz_per_row = 3.0,
                              .size_jitter = 0.2,
                              .interleave = false,
                              .seed = seed});
}

SolverOptions TinyOptions() {
  SolverOptions options;
  options.device = sim::TinyTestDevice();
  return options;
}

/// Fresh per-test cache directory under the gtest temp root.
std::string CacheDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "capellini_persist_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

void ExpectSameLevels(const LevelSets& got, const LevelSets& want) {
  EXPECT_EQ(got.level_of, want.level_of);
  EXPECT_EQ(got.level_ptr, want.level_ptr);
  EXPECT_EQ(got.order, want.order);
}

// --- AnalyzeOnDevice vs host ComputeLevelSets ------------------------------

TEST(DeviceAnalyzeTest, BitIdenticalToHostAcrossCorpus) {
  for (const NamedMatrix& m : GranularityCorpus({.tier = CorpusTier::kQuick})) {
    auto device = kernels::AnalyzeOnDevice(m.matrix, sim::TinyTestDevice());
    ASSERT_TRUE(device.ok()) << m.name << ": " << device.status().ToString();
    const LevelSets host = ComputeLevelSets(m.matrix);
    SCOPED_TRACE(m.name);
    ExpectSameLevels(device->levels, host);
  }
}

TEST(DeviceAnalyzeTest, ReportsSimulatedCost) {
  auto device = kernels::AnalyzeOnDevice(TestMatrix(11), sim::TinyTestDevice());
  ASSERT_TRUE(device.ok());
  EXPECT_GT(device->stats.cycles, 0u);
  EXPECT_GT(device->exec_ms, 0.0);
  EXPECT_GE(device->host_ms, 0.0);
}

TEST(DeviceAnalyzeTest, RejectsEmptySystem) {
  auto device = kernels::AnalyzeOnDevice(Csr(), sim::TinyTestDevice());
  EXPECT_FALSE(device.ok());
  EXPECT_EQ(device.status().code(), StatusCode::kInvalidArgument);
}

// --- Persistence (serve/persist.h) -----------------------------------------

TEST(PersistTest, RoundTripIsBitIdentical) {
  const Csr matrix = TestMatrix(21);
  const LevelSets levels = ComputeLevelSets(matrix);
  const serve::AnalysisCache cache(CacheDir("roundtrip"));
  ASSERT_TRUE(cache.Store("m21", matrix, levels, 1.25).ok());

  auto loaded = cache.Load("m21", matrix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->level_of, levels.level_of);
  EXPECT_EQ(loaded->cost_seed_ms, 1.25);
  // The full Analysis rebuilt from the persisted level_of is bit-identical
  // to the from-scratch one.
  const Analysis cold = Analyze(matrix, "m21");
  const Analysis warm = AssembleAnalysis(
      matrix, "m21", BuildLevelSetsFromLevelOf(std::move(loaded->level_of)));
  ExpectSameLevels(warm.levels, cold.levels);
  EXPECT_EQ(warm.recommended, cold.recommended);
  EXPECT_EQ(warm.stats.num_levels, cold.stats.num_levels);
}

TEST(PersistTest, MissingFileIsNotFound) {
  const serve::AnalysisCache cache(CacheDir("missing"));
  auto loaded = cache.Load("never_stored", TestMatrix(22));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(PersistTest, CorruptedFileIsDataLoss) {
  const Csr matrix = TestMatrix(23);
  const serve::AnalysisCache cache(CacheDir("corrupt"));
  ASSERT_TRUE(cache.Store("m23", matrix, ComputeLevelSets(matrix), 0.5).ok());

  // Flip one payload byte in place; the trailing FNV checksum must catch it.
  const std::string path = cache.PathFor("m23");
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekp(32);  // inside level_of[]
  char byte = 0;
  file.read(&byte, 1);
  file.seekp(32);
  byte = static_cast<char>(byte ^ 0x5A);
  file.write(&byte, 1);
  file.close();

  auto loaded = cache.Load("m23", matrix);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(PersistTest, TruncatedFileIsDataLoss) {
  const Csr matrix = TestMatrix(24);
  const serve::AnalysisCache cache(CacheDir("truncate"));
  ASSERT_TRUE(cache.Store("m24", matrix, ComputeLevelSets(matrix), 0.5).ok());

  const std::string path = cache.PathFor("m24");
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) / 2);
  auto loaded = cache.Load("m24", matrix);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(PersistTest, StaleFingerprintIsDataLoss) {
  // Same name, structurally different factor: the in-file fingerprint no
  // longer matches and the entry must be treated as stale, not served.
  const Csr old_matrix = TestMatrix(25);
  const Csr new_matrix = TestMatrix(26);
  const serve::AnalysisCache cache(CacheDir("stale"));
  ASSERT_TRUE(
      cache.Store("m", old_matrix, ComputeLevelSets(old_matrix), 0.5).ok());

  auto loaded = cache.Load("m", new_matrix);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  // The original matrix still loads fine — staleness is per-lookup.
  EXPECT_TRUE(cache.Load("m", old_matrix).ok());
}

TEST(PersistTest, FingerprintIgnoresValues) {
  Csr a = TestMatrix(27);
  Csr b = a;
  for (Val& v : b.mutable_val()) v *= 2.0;
  EXPECT_EQ(serve::StructureFingerprint(a), serve::StructureFingerprint(b));
}

// --- Registry integration: cold / warm / on-device -------------------------

TEST(RegistryPersistTest, WarmRegistrationRunsZeroHostAnalyzes) {
  const std::string dir = CacheDir("registry_warm");
  const Csr matrix = TestMatrix(31);
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 7);

  std::vector<Val> cold_x;
  LevelSets cold_levels;
  {
    serve::MatrixRegistry cold({.analysis_cache_dir = dir});
    auto handle = cold.Register(matrix, "m31", TinyOptions());
    ASSERT_TRUE(handle.ok());
    auto entry = cold.Acquire(*handle);
    ASSERT_TRUE(entry.ok());
    cold_levels = (*entry)->solver.Levels();
    auto solve = (*entry)->solver.Solve(Algorithm::kCapellini, problem.b);
    ASSERT_TRUE(solve.ok());
    cold_x = solve->x;
    const serve::RegistrySnapshot snap = cold.Snapshot();
    EXPECT_EQ(snap.analysis_cache_hits, 0u);
    EXPECT_EQ(snap.analysis_cache_misses, 1u);
  }

  // Simulated restart: a fresh registry over the same cache directory must
  // rehydrate without a single host Analyze() level sweep...
  serve::MatrixRegistry warm({.analysis_cache_dir = dir});
  const std::int64_t analyzes_before = AnalyzeCallCountForTest();
  auto handle = warm.Register(matrix, "m31", TinyOptions());
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(AnalyzeCallCountForTest(), analyzes_before);
  const serve::RegistrySnapshot snap = warm.Snapshot();
  EXPECT_EQ(snap.analysis_cache_hits, 1u);
  EXPECT_EQ(snap.analysis_cache_misses, 0u);

  // ...and the rehydrated analysis + solve are byte-identical to cold.
  auto entry = warm.Acquire(*handle);
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE((*entry)->solver.analyzed());
  ExpectSameLevels((*entry)->solver.Levels(), cold_levels);
  auto solve = (*entry)->solver.Solve(Algorithm::kCapellini, problem.b);
  ASSERT_TRUE(solve.ok());
  ASSERT_EQ(solve->x.size(), cold_x.size());
  for (std::size_t i = 0; i < cold_x.size(); ++i) {
    EXPECT_EQ(solve->x[i], cold_x[i]) << "component " << i;
  }
}

TEST(RegistryPersistTest, StaleCacheFallsBackToColdAnalysis) {
  const std::string dir = CacheDir("registry_stale");
  {
    serve::MatrixRegistry registry({.analysis_cache_dir = dir});
    ASSERT_TRUE(registry.Register(TestMatrix(41), "m", TinyOptions()).ok());
  }
  // Same tenant name, regenerated (different-structure) factor: the stale
  // file must NOT be served; a fresh analysis runs and overwrites it.
  const Csr regenerated = TestMatrix(42);
  serve::MatrixRegistry registry({.analysis_cache_dir = dir});
  auto handle = registry.Register(regenerated, "m", TinyOptions());
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(registry.Snapshot().analysis_cache_hits, 0u);
  EXPECT_EQ(registry.Snapshot().analysis_cache_misses, 1u);
  auto entry = registry.Acquire(*handle);
  ASSERT_TRUE(entry.ok());
  ExpectSameLevels((*entry)->solver.Levels(), ComputeLevelSets(regenerated));

  // The overwrite made the file warm for the regenerated structure.
  serve::MatrixRegistry again({.analysis_cache_dir = dir});
  ASSERT_TRUE(again.Register(regenerated, "m", TinyOptions()).ok());
  EXPECT_EQ(again.Snapshot().analysis_cache_hits, 1u);
}

// --- End-to-end reorder decision (core/autotune.h) -------------------------

TEST(ReorderTest, ProfileIsEndToEndConsistent) {
  const Csr matrix = TestMatrix(61);
  auto profile = TuneLevelReorder(matrix, sim::TinyTestDevice());
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_GT(profile->direct_solve_ms, 0.0);
  EXPECT_GT(profile->analyze_ms, 0.0);
  EXPECT_GT(profile->reordered_solve_ms, 0.0);
  EXPECT_EQ(profile->num_levels, 6);
  EXPECT_DOUBLE_EQ(profile->reordered_total_ms,
                   profile->analyze_ms + profile->reordered_solve_ms);
  // The verdict is exactly the end-to-end comparison — reordering is never
  // selected on solve time alone.
  EXPECT_EQ(profile->use_reorder,
            profile->reordered_total_ms < profile->direct_solve_ms);
}

TEST(ReorderTest, AmortizationSpreadsAnalysisCost) {
  const Csr matrix = TestMatrix(62);
  auto once = TuneLevelReorder(matrix, sim::TinyTestDevice(),
                               {.amortize_solves = 1});
  auto many = TuneLevelReorder(matrix, sim::TinyTestDevice(),
                               {.amortize_solves = 1000});
  ASSERT_TRUE(once.ok());
  ASSERT_TRUE(many.ok());
  EXPECT_LT(many->reordered_total_ms, once->reordered_total_ms);
  EXPECT_DOUBLE_EQ(
      many->reordered_total_ms,
      many->analyze_ms / 1000.0 + many->reordered_solve_ms);
}

}  // namespace
}  // namespace capellini

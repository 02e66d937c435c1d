// Preprocessing-cost bench: cold vs warm vs on-device registration (DESIGN.md
// §4i), with a fatal host-vs-device identity gate.
//
//  1. Identity gate (always on, fatal): for EVERY corpus matrix, the
//     AnalyzeOnDevice level sets (level_of / level_ptr / order) must be
//     bit-identical to host ComputeLevelSets, and the cache round-trip
//     (Store -> Load -> BuildLevelSetsFromLevelOf) must rehydrate the same
//     bits. Any mismatch exits nonzero — warm and on-device registration are
//     only allowed to skip the host sweep because they are indistinguishable
//     from it.
//  2. Registration-cost table: per matrix, cold (host Analyze, wall-clock),
//     warm (cache Load + AssembleAnalysis, wall-clock — the restart path,
//     which runs zero host level sweeps; asserted via
//     AnalyzeCallCountForTest), and on-device (simulated exec_ms of the
//     in-degree + propagation kernels, plus the host ms around the
//     launches). Host timings are best-of --reps.
//  3. Reorder-decision table: TuneLevelReorder's end-to-end verdict per
//     matrix — direct solve vs on-device analysis + level-permuted solve —
//     plus the analytic break-even solve count where the permutation starts
//     paying for itself.
//
// Writes --json=PATH through bench_common.h's WriteJsonReport (CI uploads
// BENCH_analysis.json from the analysis-smoke job).
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/analysis.h"
#include "core/autotune.h"
#include "gen/corpus.h"
#include "graph/levels.h"
#include "kernels/analyze.h"
#include "matrix/csr.h"
#include "serve/persist.h"
#include "sim/config.h"
#include "support/cli.h"
#include "support/table.h"
#include "support/timer.h"

namespace capellini::bench {
namespace {

bool SameLevels(const LevelSets& a, const LevelSets& b) {
  return a.level_of == b.level_of && a.level_ptr == b.level_ptr &&
         a.order == b.order;
}

struct CostRow {
  std::string name;
  Idx rows = 0;
  std::int64_t nnz = 0;
  Idx levels = 0;
  double cold_ms = 0.0;      // host Analyze(), wall-clock
  double warm_ms = 0.0;      // cache Load + AssembleAnalysis, wall-clock
  double device_exec_ms = 0.0;  // simulated in-degree + propagation kernels
  double device_host_ms = 0.0;  // host work around the launches
};

struct ReorderRow {
  std::string name;
  bool use_reorder = false;
  double direct_ms = 0.0;
  double analyze_ms = 0.0;
  double reordered_solve_ms = 0.0;
  /// Solves after which analysis + permuted solve beats the direct path
  /// (< 0 = never: the permuted solve is not faster per-solve).
  double break_even_solves = 0.0;
};

int Main(int argc, char** argv) {
  bool quick = false;
  std::int64_t reps = 5;
  CliFlags flags;
  flags.AddBool("quick", &quick, "CI smoke: quick corpus tier, fewer reps");
  flags.AddInt("reps", &reps, "host timing repetitions (best-of)");
  BenchOptions options = ParseBenchFlags(argc, argv, &flags);
  if (quick) {
    options.full = false;
    reps = std::min<std::int64_t>(reps, 2);
  }
  if (reps < 1) reps = 1;

  const sim::DeviceConfig config = SelectedPlatforms(options).front();
  const std::vector<NamedMatrix> corpus =
      GranularityCorpus(ToCorpusOptions(options));

  const std::string cache_dir =
      (std::filesystem::temp_directory_path() / "capellini_bench_analysis")
          .string();
  std::filesystem::remove_all(cache_dir);
  const serve::AnalysisCache cache(cache_dir);

  // --- 1+2: identity gate + registration-cost sweep -----------------------
  std::vector<CostRow> costs;
  int gate_checks = 0;
  for (const NamedMatrix& entry : corpus) {
    if (options.progress) {
      std::fprintf(stderr, "analyze %s (%lld rows)\n", entry.name.c_str(),
                   static_cast<long long>(entry.matrix.rows()));
    }
    CostRow row;
    row.name = entry.name;
    row.rows = entry.matrix.rows();
    row.nnz = entry.matrix.nnz();

    // Cold: the full host registration analysis, best-of reps.
    Analysis host = Analyze(entry.matrix, entry.name);
    {
      Timer timer;
      host = Analyze(entry.matrix, entry.name);
      row.cold_ms = timer.ElapsedMs();
    }
    for (std::int64_t r = 1; r < reps; ++r) {
      Timer timer;
      const Analysis again = Analyze(entry.matrix, entry.name);
      row.cold_ms = std::min(row.cold_ms, timer.ElapsedMs());
      if (!SameLevels(again.levels, host.levels)) {
        std::fprintf(stderr, "FAIL: %s: host Analyze is not deterministic\n",
                     entry.name.c_str());
        return 1;
      }
    }
    row.levels = host.levels.num_levels();

    // Warm: persist, then time the restart path. The rehydrated analysis
    // must be bit-identical and must run zero host level sweeps.
    const Status stored =
        cache.Store(entry.name, entry.matrix, host.levels, row.cold_ms);
    if (!stored.ok()) {
      std::fprintf(stderr, "FAIL: %s: cache store: %s\n", entry.name.c_str(),
                   stored.ToString().c_str());
      return 1;
    }
    const std::int64_t sweeps_before = AnalyzeCallCountForTest();
    for (std::int64_t r = 0; r < reps; ++r) {
      Timer timer;
      auto persisted = cache.Load(entry.name, entry.matrix);
      if (!persisted.ok()) {
        std::fprintf(stderr, "FAIL: %s: cache load: %s\n", entry.name.c_str(),
                     persisted.status().ToString().c_str());
        return 1;
      }
      const Analysis warm = AssembleAnalysis(
          entry.matrix, entry.name,
          BuildLevelSetsFromLevelOf(std::move(persisted->level_of)));
      const double ms = timer.ElapsedMs();
      row.warm_ms = r == 0 ? ms : std::min(row.warm_ms, ms);
      if (!SameLevels(warm.levels, host.levels)) {
        std::fprintf(stderr,
                     "FAIL: %s: rehydrated levels differ from host Analyze\n",
                     entry.name.c_str());
        return 1;
      }
    }
    if (AnalyzeCallCountForTest() != sweeps_before) {
      std::fprintf(stderr,
                   "FAIL: %s: warm rehydration ran a host level sweep\n",
                   entry.name.c_str());
      return 1;
    }
    ++gate_checks;

    // On-device: simulated analyser kernels; FATAL if the level sets are
    // not bit-identical to the host sweep.
    auto device = kernels::AnalyzeOnDevice(entry.matrix, config);
    if (!device.ok()) {
      std::fprintf(stderr, "FAIL: %s: AnalyzeOnDevice: %s\n",
                   entry.name.c_str(), device.status().ToString().c_str());
      return 1;
    }
    if (!SameLevels(device->levels, host.levels)) {
      std::fprintf(stderr,
                   "FAIL: %s: on-device level sets differ from host "
                   "ComputeLevelSets\n",
                   entry.name.c_str());
      return 1;
    }
    ++gate_checks;
    row.device_exec_ms = device->exec_ms;
    row.device_host_ms = device->host_ms;
    costs.push_back(row);
  }
  std::printf(
      "identity gate OK: %d checks (device + rehydrated levels bit-identical "
      "to host) on %s\n\n",
      gate_checks, config.name.c_str());

  TextTable cost_table({"matrix", "rows", "nnz", "levels", "cold ms",
                        "warm ms", "warm speedup", "dev exec ms",
                        "dev host ms"});
  cost_table.SetTitle("registration cost: cold (host) vs warm (cache) vs "
                      "on-device (simulated)");
  for (const CostRow& row : costs) {
    cost_table.AddRow(
        {row.name, TextTable::Int(row.rows), TextTable::Int(row.nnz),
         TextTable::Int(row.levels), TextTable::Num(row.cold_ms, 3),
         TextTable::Num(row.warm_ms, 3),
         TextTable::Num(row.warm_ms > 0.0 ? row.cold_ms / row.warm_ms : 0.0,
                        1),
         TextTable::Num(row.device_exec_ms, 3),
         TextTable::Num(row.device_host_ms, 3)});
  }
  std::printf("%s\n", cost_table.ToString().c_str());

  // --- 3: end-to-end reorder decision -------------------------------------
  std::vector<ReorderRow> reorders;
  for (const NamedMatrix& entry : corpus) {
    if (options.progress) {
      std::fprintf(stderr, "reorder %s\n", entry.name.c_str());
    }
    auto profile = TuneLevelReorder(entry.matrix, config);
    if (!profile.ok()) {
      std::fprintf(stderr, "FAIL: %s: TuneLevelReorder: %s\n",
                   entry.name.c_str(), profile.status().ToString().c_str());
      return 1;
    }
    ReorderRow row;
    row.name = entry.name;
    row.use_reorder = profile->use_reorder;
    row.direct_ms = profile->direct_solve_ms;
    row.analyze_ms = profile->analyze_ms;
    row.reordered_solve_ms = profile->reordered_solve_ms;
    const double per_solve_gain =
        profile->direct_solve_ms - profile->reordered_solve_ms;
    row.break_even_solves =
        per_solve_gain > 0.0 ? profile->analyze_ms / per_solve_gain : -1.0;
    reorders.push_back(row);
  }
  TextTable reorder_table({"matrix", "reorder?", "direct ms", "analyze ms",
                           "permuted ms", "break-even solves"});
  reorder_table.SetTitle(
      "level-permutation verdict (end-to-end simulated, amortize=1)");
  for (const ReorderRow& row : reorders) {
    reorder_table.AddRow(
        {row.name, row.use_reorder ? "yes" : "no",
         TextTable::Num(row.direct_ms, 4), TextTable::Num(row.analyze_ms, 4),
         TextTable::Num(row.reordered_solve_ms, 4),
         row.break_even_solves < 0.0
             ? "never"
             : TextTable::Num(row.break_even_solves, 1)});
  }
  std::printf("%s\n", reorder_table.ToString().c_str());

  if (!options.json.empty()) {
    JsonWriter json;
    json.BeginObject()
        .Key("platform").String(config.name)
        .Key("identity_checks").Int(gate_checks)
        .Key("registration").BeginArray();
    for (const CostRow& row : costs) {
      json.BeginObject()
          .Key("matrix").String(row.name)
          .Key("rows").Int(row.rows)
          .Key("nnz").Int(row.nnz)
          .Key("levels").Int(row.levels)
          .Key("cold_ms").Double(row.cold_ms)
          .Key("warm_ms").Double(row.warm_ms)
          .Key("device_exec_ms").Double(row.device_exec_ms)
          .Key("device_host_ms").Double(row.device_host_ms)
          .EndObject();
    }
    json.EndArray().Key("reorder").BeginArray();
    for (const ReorderRow& row : reorders) {
      json.BeginObject()
          .Key("matrix").String(row.name)
          .Key("use_reorder").Bool(row.use_reorder)
          .Key("direct_ms").Double(row.direct_ms)
          .Key("analyze_ms").Double(row.analyze_ms)
          .Key("reordered_solve_ms").Double(row.reordered_solve_ms)
          .Key("break_even_solves").Double(row.break_even_solves)
          .EndObject();
    }
    json.EndArray().EndObject();
    if (!WriteJsonReport(options.json, json)) return 1;
  }
  std::filesystem::remove_all(cache_dir);
  return 0;
}

}  // namespace
}  // namespace capellini::bench

int main(int argc, char** argv) { return capellini::bench::Main(argc, argv); }

// Interpreter-speed microbench: host_ns_per_sim_cycle of the simulated
// device's interpreter on three interpreter-shaped workloads.
//
// Regression gate (--baseline=PATH): the measured aggregate
// host_ns_per_sim_cycle may exceed the committed baseline's by at most
// --tolerance (default 0.20). The baseline
// (bench/baselines/BENCH_interp_baseline.json) is refreshed whenever the CI
// hardware class changes; the gate catches interpreter-speed regressions
// that land silently while tests stay green. The simulated schedule itself
// is pinned by tests/golden_schedule_test.cpp, not here.
//
// Writes --json=PATH through bench_common.h's WriteJsonReport.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/solver.h"
#include "gen/banded.h"
#include "gen/random_lower.h"
#include "matrix/triangular.h"
#include "sim/config.h"
#include "support/cli.h"
#include "support/status.h"
#include "support/table.h"

namespace capellini::bench {
namespace {

struct Workload {
  std::string name;
  Csr lower;
  Algorithm algorithm = Algorithm::kCapellini;
};

struct Measurement {
  std::uint64_t cycles = 0;
  double best_ms = 0.0;  // best-of-reps wall for the Solve call
};

/// Solves `reps` times, keeps the best wall time (least scheduler noise) and
/// the cycle count of the last run (identical across reps by the simulator's
/// determinism contract).
Measurement Measure(const Workload& workload, const std::vector<Val>& b,
                    int reps) {
  SolverOptions options;
  options.device = sim::PascalGtx1080();
  Solver solver(workload.lower, options);
  solver.analysis();  // pay preprocessing once, outside the timed region
  Measurement m;
  for (int rep = 0; rep < reps; ++rep) {
    const auto begin = std::chrono::steady_clock::now();
    auto result = solver.Solve(workload.algorithm, b);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - begin)
                          .count();
    if (!result.ok()) {
      std::fprintf(stderr, "FAIL: %s: %s\n", workload.name.c_str(),
                   result.status().ToString().c_str());
      std::exit(1);
    }
    if (rep == 0 || ms < m.best_ms) m.best_ms = ms;
    m.cycles = result->device_stats.cycles;
  }
  return m;
}

/// The committed baseline's top-level "host_ns_per_sim_cycle".
double ReadBaselineNsPerCycle(const std::string& path) {
  auto doc = ReadJsonFile(path);
  const JsonValue* value =
      doc.ok() ? doc->Find("host_ns_per_sim_cycle") : nullptr;
  double ns_per_cycle = 0.0;
  if (value == nullptr || !value->Get(ns_per_cycle)) {
    std::fprintf(stderr, "FAIL: no host_ns_per_sim_cycle number in %s (%s)\n",
                 path.c_str(), doc.status().ToString().c_str());
    std::exit(1);
  }
  return ns_per_cycle;
}

int Main(int argc, char** argv) {
  std::int64_t rows = 12000;
  std::int64_t reps = 3;
  double tolerance = 0.20;
  std::string json;
  std::string baseline;
  CliFlags flags;
  flags.AddInt("rows", &rows, "rows per generated workload matrix");
  flags.AddInt("reps", &reps, "timed repetitions per workload");
  flags.AddDouble("tolerance", &tolerance,
                  "allowed fractional regression vs --baseline");
  flags.AddString("json", &json, "write machine-readable results here");
  flags.AddString("baseline", &baseline,
                  "committed baseline JSON to gate against (empty = off)");
  const Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }

  // Three interpreter-shaped workloads: a chained band (spin-heavy, long
  // straight-line bodies), a random sparse factor (divergent), and the
  // Two-Phase kernel (different instruction mix) on the band.
  std::vector<Workload> workloads;
  workloads.push_back({"banded_capellini",
                       MakeBanded({.rows = static_cast<Idx>(rows),
                                   .bandwidth = 32, .fill = 0.8,
                                   .force_chain = true, .seed = 21}),
                       Algorithm::kCapellini});
  workloads.push_back(
      {"random_capellini",
       MakeRandomLower({.rows = static_cast<Idx>(rows),
                        .avg_strict_nnz_per_row = 4.0, .window = 0,
                        .empty_row_fraction = 0.2, .seed = 22}),
       Algorithm::kCapellini});
  workloads.push_back({"banded_twophase",
                       MakeBanded({.rows = static_cast<Idx>(rows),
                                   .bandwidth = 32, .fill = 0.8,
                                   .force_chain = true, .seed = 21}),
                       Algorithm::kCapelliniTwoPhase});

  TextTable table({"workload", "cycles", "ms", "ns/cyc"});
  double total_ms = 0.0;
  std::uint64_t total_cycles = 0;
  JsonWriter json_rows;  // one object per workload
  for (const Workload& workload : workloads) {
    const ReferenceProblem problem =
        MakeReferenceProblem(workload.lower, 23);
    const Measurement m =
        Measure(workload, problem.b, static_cast<int>(reps));
    total_ms += m.best_ms;
    total_cycles += m.cycles;
    const double ns_per_cycle =
        m.cycles == 0 ? 0.0
                      : m.best_ms * 1e6 / static_cast<double>(m.cycles);
    table.AddRow({workload.name,
                  TextTable::Int(static_cast<long long>(m.cycles)),
                  TextTable::Num(m.best_ms, 1),
                  TextTable::Num(ns_per_cycle, 1)});
    json_rows.BeginObject()
        .Key("workload").String(workload.name)
        .Key("cycles").Int(m.cycles)
        .Key("ms").Double(m.best_ms)
        .Key("host_ns_per_sim_cycle").Double(ns_per_cycle)
        .EndObject();
  }

  const double ns_per_cycle =
      total_cycles == 0 ? 0.0
                        : total_ms * 1e6 / static_cast<double>(total_cycles);
  std::printf("%s", table.ToString().c_str());
  std::printf("\naggregate host_ns_per_sim_cycle %.2f\n", ns_per_cycle);

  if (!json.empty()) {
    JsonWriter report;
    report.BeginObject()
        .Key("host_ns_per_sim_cycle").Double(ns_per_cycle)
        .Key("workloads").BeginArray().Splice(json_rows).EndArray()
        .EndObject();
    if (!WriteJsonReport(json, report)) return 1;
  }

  if (!baseline.empty()) {
    const double base = ReadBaselineNsPerCycle(baseline);
    const double limit = base * (1.0 + tolerance);
    if (ns_per_cycle > limit) {
      std::fprintf(stderr,
                   "FAIL: host_ns_per_sim_cycle %.2f regressed past %.2f "
                   "(baseline %.2f + %.0f%%)\n",
                   ns_per_cycle, limit, base, tolerance * 100.0);
      return 1;
    }
    std::printf("baseline gate OK: %.2f <= %.2f (baseline %.2f + %.0f%%)\n",
                ns_per_cycle, limit, base, tolerance * 100.0);
  }
  return 0;
}

}  // namespace
}  // namespace capellini::bench

int main(int argc, char** argv) { return capellini::bench::Main(argc, argv); }

// Streaming-update bench: bit-identity gate + incremental-analysis wins +
// an update-rate x traffic sweep (DESIGN.md §4h).
//
//  1. Bit-identity gate (always on, fatal): for EVERY delta kind (value-only,
//     single insert, single delete, randomized 50-delta batch) and EVERY
//     algorithm, the FNV-1a checksum of a solve on the post-ApplyDelta epoch
//     must equal the checksum of the same solve on a FRESH registration of
//     the mutated matrix. Any mismatch exits nonzero — the incremental
//     analyzer is only allowed to be fast because it is indistinguishable
//     from full re-analysis.
//  2. Incremental-wins table: per workload, the cost of one incremental
//     apply (update_ms) against a from-scratch Analyze(), plus the cone
//     fraction rows_releveled/total_rows. Value-only batches must report
//     zero rows re-leveled (the zero-re-analysis fast path).
//  3. Update-rate x traffic sweep: zipf solve traffic with update events
//     interleaved at increasing rates, replayed through a live SolveService
//     with verification on. Any wrong solution is fatal — in-flight solves
//     must land on their admission epoch. Reports throughput and the
//     amortized per-update re-analysis cost.
//
// Writes --json=PATH through bench_common.h's WriteJsonReport (CI uploads
// BENCH_update.json from the update-smoke job).
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/analysis.h"
#include "core/solver.h"
#include "gen/banded.h"
#include "gen/random_lower.h"
#include "matrix/triangular.h"
#include "serve/registry.h"
#include "serve/replay.h"
#include "serve/service.h"
#include "sim/config.h"
#include "support/cli.h"
#include "support/status.h"
#include "support/table.h"
#include "support/timer.h"
#include "update/delta.h"
#include "update/incremental.h"

namespace capellini::bench {
namespace {

std::uint64_t FnvChecksum(const std::vector<Val>& x) {
  std::uint64_t h = serve::kFnvSeed;
  for (const Val v : x) h = serve::HashBytes(h, &v, sizeof(v));
  return h;
}

SolverOptions DeviceOptions() {
  SolverOptions options;
  options.device = sim::PascalGtx1080();
  return options;
}

bool HasEntry(const Csr& m, Idx row, Idx col) {
  const auto cols = m.RowCols(row);
  for (const Idx c : cols) {
    if (c == col) return true;
  }
  return false;
}

/// Absent strictly-lower position scanning from `from_row` (the generators
/// used here always leave one).
std::pair<Idx, Idx> FindAbsentStrictLower(const Csr& m, Idx from_row) {
  for (Idx i = std::max<Idx>(from_row, 1); i < m.rows(); ++i) {
    for (Idx j = 0; j < i; ++j) {
      if (!HasEntry(m, i, j)) return {i, j};
    }
  }
  std::fprintf(stderr, "FAIL: no absent strictly-lower position\n");
  std::exit(1);
}

std::pair<Idx, Idx> FindPresentStrictLower(const Csr& m, Idx from_row) {
  for (Idx i = std::max<Idx>(from_row, 1); i < m.rows(); ++i) {
    const auto cols = m.RowCols(i);
    if (cols.size() > 1) return {i, cols[0]};
  }
  std::fprintf(stderr, "FAIL: no present strictly-lower nonzero\n");
  std::exit(1);
}

/// The four delta kinds the gate and the issue's acceptance bar name.
std::vector<std::pair<std::string, update::DeltaBatch>> DeltaScenarios(
    const Csr& lower, std::uint64_t seed) {
  std::vector<std::pair<std::string, update::DeltaBatch>> scenarios;
  scenarios.emplace_back(
      "value_only",
      update::MakeRandomBatch(lower, 16, /*structural=*/false, seed));
  const auto [ins_row, ins_col] =
      FindAbsentStrictLower(lower, static_cast<Idx>(seed % 64));
  update::DeltaBatch insert_one;
  insert_one.Insert(ins_row, ins_col, 0.5);
  scenarios.emplace_back("single_insert", std::move(insert_one));
  const auto [del_row, del_col] =
      FindPresentStrictLower(lower, static_cast<Idx>(seed % 64));
  update::DeltaBatch erase_one;
  erase_one.Erase(del_row, del_col);
  scenarios.emplace_back("single_delete", std::move(erase_one));
  scenarios.emplace_back(
      "batch50",
      update::MakeRandomBatch(lower, 50, /*structural=*/true, seed + 1));
  return scenarios;
}

/// Section 1: every delta kind x every algorithm, streamed epoch vs fresh
/// registration, checksummed. Returns the number of (kind, algorithm) cells
/// checked; exits on the first mismatch.
int RunBitIdentityGate(Idx rows) {
  const std::vector<Algorithm> algorithms = {
      Algorithm::kSerialCpu,    Algorithm::kLevelSetCpu,
      Algorithm::kSyncFreeCpu,  Algorithm::kLevelSet,
      Algorithm::kSyncFree,     Algorithm::kSyncFreeCsr,
      Algorithm::kCusparse,     Algorithm::kCapelliniTwoPhase,
      Algorithm::kCapellini,    Algorithm::kHybrid,
  };
  const Csr lower = MakeRandomLower({.rows = rows,
                                     .avg_strict_nnz_per_row = 3.0,
                                     .window = 0,
                                     .empty_row_fraction = 0.15,
                                     .seed = 211});
  int cells = 0;
  for (const auto& [label, batch] : DeltaScenarios(lower, 7)) {
    serve::MatrixRegistry registry;
    auto handle = registry.Register(lower, "gate", DeviceOptions());
    if (!handle.ok()) {
      std::fprintf(stderr, "FAIL: register: %s\n",
                   handle.status().ToString().c_str());
      std::exit(1);
    }
    auto report = registry.ApplyDelta(*handle, batch);
    if (!report.ok()) {
      std::fprintf(stderr, "FAIL: ApplyDelta(%s): %s\n", label.c_str(),
                   report.status().ToString().c_str());
      std::exit(1);
    }
    auto entry = registry.Acquire(*handle);

    auto mutated = update::ApplyToMatrix(lower, batch);
    serve::MatrixRegistry fresh_registry;
    auto fresh_handle =
        fresh_registry.Register(*mutated, "gate", DeviceOptions());
    auto fresh = fresh_registry.Acquire(*fresh_handle);

    const ReferenceProblem problem = MakeReferenceProblem(*mutated, 212);
    for (const Algorithm algorithm : algorithms) {
      auto streamed = (*entry)->solver.Solve(algorithm, problem.b);
      auto oracle = (*fresh)->solver.Solve(algorithm, problem.b);
      if (!streamed.ok() || !oracle.ok()) {
        std::fprintf(stderr, "FAIL: %s/%s solve: %s\n", label.c_str(),
                     AlgorithmName(algorithm),
                     (!streamed.ok() ? streamed.status() : oracle.status())
                         .ToString()
                         .c_str());
        std::exit(1);
      }
      const std::uint64_t a = FnvChecksum(streamed->x);
      const std::uint64_t b = FnvChecksum(oracle->x);
      if (a != b) {
        std::fprintf(stderr,
                     "FAIL: bit-identity gate: %s/%s checksum %016llx vs "
                     "fresh %016llx\n",
                     label.c_str(), AlgorithmName(algorithm),
                     static_cast<unsigned long long>(a),
                     static_cast<unsigned long long>(b));
        std::exit(1);
      }
      ++cells;
    }
  }
  return cells;
}

struct WinRow {
  std::string workload;
  std::string kind;
  /// Cost of the non-incremental path for the SAME batch: ApplyToMatrix +
  /// from-scratch Analyze of the mutated factor (what a registry without
  /// src/update would pay per delta).
  double full_ms = 0.0;
  double update_ms = 0.0;
  Idx rows_releveled = 0;
  Idx total_rows = 0;
};

/// Section 2: incremental apply vs full Analyze, per workload and delta
/// kind. Best-of-`reps` timings on both sides.
std::vector<WinRow> RunIncrementalWins(Idx rows, int reps) {
  std::vector<std::pair<std::string, Csr>> workloads;
  workloads.emplace_back("banded_chain",
                         MakeBanded({.rows = rows, .bandwidth = 16,
                                     .fill = 0.7, .force_chain = true,
                                     .seed = 221}));
  workloads.emplace_back("random_sparse",
                         MakeRandomLower({.rows = rows,
                                          .avg_strict_nnz_per_row = 3.0,
                                          .window = 0,
                                          .empty_row_fraction = 0.2,
                                          .seed = 222}));
  workloads.emplace_back("random_local",
                         MakeRandomLower({.rows = rows,
                                          .avg_strict_nnz_per_row = 4.0,
                                          .window = 64,
                                          .empty_row_fraction = 0.0,
                                          .seed = 223}));

  std::vector<WinRow> out;
  update::IncrementalAnalyzer analyzer;
  for (const auto& [name, lower] : workloads) {
    const auto analysis =
        std::make_shared<const Analysis>(Analyze(lower, name));

    // A persistent consumer graph so every structural row reports the
    // steady-state (patch, not rebuild) cost the registry pays.
    update::ConsumerGraph graph = update::ConsumerGraph::Build(lower);
    for (const auto& [kind, batch] : DeltaScenarios(lower, 9)) {
      WinRow row;
      row.workload = name;
      row.kind = kind;
      for (int rep = 0; rep < reps; ++rep) {
        Timer timer;
        auto mutated = update::ApplyToMatrix(lower, batch);
        if (!mutated.ok()) {
          std::fprintf(stderr, "FAIL: oracle apply(%s/%s): %s\n",
                       name.c_str(), kind.c_str(),
                       mutated.status().ToString().c_str());
          std::exit(1);
        }
        const Analysis oracle = Analyze(*mutated, name);
        const double ms = timer.ElapsedMs();
        if (rep == 0 || ms < row.full_ms) row.full_ms = ms;
        if (oracle.levels.level_of.empty() && lower.rows() != 0) {
          std::fprintf(stderr, "FAIL: oracle analysis empty\n");
          std::exit(1);
        }
      }
      for (int rep = 0; rep < reps; ++rep) {
        update::ConsumerGraph scratch = graph;  // patching mutates it
        auto result = analyzer.Apply(lower, analysis, batch, &scratch);
        if (!result.ok()) {
          std::fprintf(stderr, "FAIL: incremental apply(%s/%s): %s\n",
                       name.c_str(), kind.c_str(),
                       result.status().ToString().c_str());
          std::exit(1);
        }
        if (rep == 0 || result->update_ms < row.update_ms) {
          row.update_ms = result->update_ms;
        }
        row.rows_releveled = result->rows_releveled;
        row.total_rows = result->total_rows;
        if (kind == "value_only" && result->rows_releveled != 0) {
          std::fprintf(stderr,
                       "FAIL: value-only batch re-leveled %lld rows\n",
                       static_cast<long long>(result->rows_releveled));
          std::exit(1);
        }
      }
      out.push_back(row);
    }
  }
  return out;
}

struct SweepRow {
  double update_rate = 0.0;
  std::size_t solves = 0;
  std::size_t updates = 0;
  std::uint64_t rows_releveled = 0;
  double requests_per_sec = 0.0;
  double amortized_update_ms = 0.0;  // mean registry-side ApplyDelta ms
  double wall_ms = 0.0;
};

/// Section 3: zipf traffic with updates interleaved at increasing rates
/// through a live service, verification fatal.
std::vector<SweepRow> RunSweep(Idx rows, int requests,
                               const std::vector<double>& rates) {
  std::vector<SweepRow> out;
  for (const double rate : rates) {
    serve::MatrixRegistry registry;
    std::vector<serve::MatrixHandle> handles;
    for (std::uint64_t seed = 231; seed < 235; ++seed) {
      const Csr lower = MakeRandomLower({.rows = rows,
                                         .avg_strict_nnz_per_row = 3.0,
                                         .window = 0,
                                         .empty_row_fraction = 0.1,
                                         .seed = seed});
      auto handle = registry.Register(
          lower, std::string("m").append(std::to_string(seed)),
          DeviceOptions());
      if (!handle.ok()) {
        std::fprintf(stderr, "FAIL: register: %s\n",
                     handle.status().ToString().c_str());
        std::exit(1);
      }
      handles.push_back(*handle);
    }
    serve::ServiceOptions options;
    options.workers = 2;
    options.max_batch = 4;
    options.max_queue = static_cast<std::size_t>(requests) * 2 + 16;
    serve::SolveService service(&registry, options);

    serve::RequestTrace trace =
        serve::GenerateZipfTrace(requests, 4, 1.1, 236);
    if (rate > 0.0) {
      serve::InterleaveUpdates(trace, rate, 8, 0.5, 237);
    }

    Timer timer;
    auto report = serve::ReplayTrace(service, handles, trace, {});
    const double wall_ms = timer.ElapsedMs();
    if (!report.ok()) {
      std::fprintf(stderr, "FAIL: replay: %s\n",
                   report.status().ToString().c_str());
      std::exit(1);
    }
    if (report->wrong != 0 || report->failed != 0) {
      std::fprintf(stderr,
                   "FAIL: update-rate %.2f: %zu wrong, %zu failed solutions "
                   "(in-flight solves must land on their admission epoch)\n",
                   rate, report->wrong, report->failed);
      std::exit(1);
    }

    SweepRow row;
    row.update_rate = rate;
    row.solves = report->completed;
    row.updates = report->updates;
    row.rows_releveled = report->rows_releveled;
    row.requests_per_sec = report->requests_per_sec;
    row.wall_ms = wall_ms;
    const auto totals = service.stats().totals();
    if (totals.updates_value + totals.updates_structural != report->updates) {
      std::fprintf(stderr, "FAIL: update accounting diverged from replay\n");
      std::exit(1);
    }

    // Amortized re-analysis cost + stream bit-identity: re-apply ONLY the
    // trace's update events, serially, on a clone registry. Each batch is a
    // pure function of (matrix at apply time, seed), so the serial pass
    // reproduces the replay's update stream exactly — its summed update_ms
    // is the amortized cost, and the final matrices must match the live
    // registry's post-replay epochs bit for bit.
    if (report->updates > 0) {
      serve::MatrixRegistry clone;
      std::vector<serve::MatrixHandle> clone_handles;
      for (std::uint64_t seed = 231; seed < 235; ++seed) {
        const Csr lower = MakeRandomLower({.rows = rows,
                                           .avg_strict_nnz_per_row = 3.0,
                                           .window = 0,
                                           .empty_row_fraction = 0.1,
                                           .seed = seed});
        clone_handles.push_back(*clone.Register(
            lower, std::string("c").append(std::to_string(seed)),
            DeviceOptions()));
      }
      double update_ms_total = 0.0;
      for (const serve::TraceRequest& event : trace.requests) {
        if (event.kind != serve::TraceEventKind::kUpdate) continue;
        const serve::MatrixHandle handle =
            clone_handles[static_cast<std::size_t>(event.matrix) %
                          clone_handles.size()];
        auto entry = clone.Peek(handle);
        const update::DeltaBatch batch = update::MakeRandomBatch(
            (*entry)->solver.matrix(), event.update_deltas, event.structural,
            event.seed);
        auto applied = clone.ApplyDelta(handle, batch);
        if (!applied.ok()) {
          std::fprintf(stderr, "FAIL: serial update replay: %s\n",
                       applied.status().ToString().c_str());
          std::exit(1);
        }
        update_ms_total += applied->update_ms;
      }
      row.amortized_update_ms =
          update_ms_total / static_cast<double>(report->updates);
      for (std::size_t i = 0; i < handles.size(); ++i) {
        const Csr& live = (*registry.Peek(handles[i]))->solver.matrix();
        const Csr& serial = (*clone.Peek(clone_handles[i]))->solver.matrix();
        if (!(live == serial)) {
          std::fprintf(stderr,
                       "FAIL: update-rate %.2f: post-replay matrix %zu "
                       "diverged from the serial update stream\n",
                       rate, i);
          std::exit(1);
        }
      }
    }
    out.push_back(row);
  }
  return out;
}

int Main(int argc, char** argv) {
  std::int64_t rows = 3000;
  std::int64_t requests = 200;
  std::int64_t reps = 5;
  bool quick = false;
  std::string json;
  CliFlags flags;
  flags.AddInt("rows", &rows, "rows per generated factor");
  flags.AddInt("requests", &requests, "solve requests per sweep point");
  flags.AddInt("reps", &reps, "timing repetitions (best-of)");
  flags.AddBool("quick", &quick, "CI smoke: smaller factors, fewer requests");
  flags.AddString("json", &json, "write machine-readable results here");
  const Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }
  if (quick) {
    rows = std::min<std::int64_t>(rows, 800);
    requests = std::min<std::int64_t>(requests, 60);
    reps = std::min<std::int64_t>(reps, 3);
  }

  // 1. Bit-identity gate (fatal on mismatch).
  const int gate_cells =
      RunBitIdentityGate(static_cast<Idx>(std::min<std::int64_t>(rows, 1200)));
  std::printf("bit-identity gate OK: %d delta-kind x algorithm cells\n\n",
              gate_cells);

  // 2. Incremental wins.
  const std::vector<WinRow> wins =
      RunIncrementalWins(static_cast<Idx>(rows), static_cast<int>(reps));
  TextTable win_table({"workload", "delta kind", "full ms", "update ms",
                       "speedup", "cone rows", "cone frac"});
  for (const WinRow& row : wins) {
    win_table.AddRow(
        {row.workload, row.kind, TextTable::Num(row.full_ms, 3),
         TextTable::Num(row.update_ms, 3),
         TextTable::Num(row.update_ms > 0.0 ? row.full_ms / row.update_ms
                                            : 0.0,
                        1),
         TextTable::Int(row.rows_releveled),
         TextTable::Num(row.total_rows == 0
                            ? 0.0
                            : static_cast<double>(row.rows_releveled) /
                                  static_cast<double>(row.total_rows),
                        4)});
  }
  std::printf("%s\n", win_table.ToString().c_str());

  // 3. Update-rate x traffic sweep (verification fatal inside).
  std::vector<double> rates = {0.0, 0.1, 0.3};
  if (quick) rates = {0.0, 0.25};
  const std::vector<SweepRow> sweep =
      RunSweep(static_cast<Idx>(std::min<std::int64_t>(rows, 1500)),
               static_cast<int>(requests), rates);
  TextTable sweep_table({"update rate", "solves", "updates", "releveled",
                         "req/s", "amortized ms", "wall ms"});
  for (const SweepRow& row : sweep) {
    sweep_table.AddRow({TextTable::Num(row.update_rate, 2),
                        TextTable::Int(static_cast<long long>(row.solves)),
                        TextTable::Int(static_cast<long long>(row.updates)),
                        TextTable::Int(static_cast<long long>(
                            row.rows_releveled)),
                        TextTable::Num(row.requests_per_sec, 1),
                        TextTable::Num(row.amortized_update_ms, 3),
                        TextTable::Num(row.wall_ms, 1)});
  }
  std::printf("%s\n", sweep_table.ToString().c_str());
  std::printf("all solutions verified at every update rate\n");

  if (!json.empty()) {
    JsonWriter report;
    report.BeginObject()
        .Key("bit_identity_cells").Int(gate_cells)
        .Key("incremental_wins").BeginArray();
    for (const WinRow& row : wins) {
      report.BeginObject()
          .Key("workload").String(row.workload)
          .Key("kind").String(row.kind)
          .Key("full_reanalysis_ms").Double(row.full_ms)
          .Key("update_ms").Double(row.update_ms)
          .Key("rows_releveled").Int(row.rows_releveled)
          .Key("total_rows").Int(row.total_rows)
          .EndObject();
    }
    report.EndArray().Key("sweep").BeginArray();
    for (const SweepRow& row : sweep) {
      report.BeginObject()
          .Key("update_rate").Double(row.update_rate)
          .Key("solves").Int(row.solves)
          .Key("updates").Int(row.updates)
          .Key("rows_releveled").Int(row.rows_releveled)
          .Key("requests_per_sec").Double(row.requests_per_sec)
          .Key("amortized_update_ms").Double(row.amortized_update_ms)
          .Key("wall_ms").Double(row.wall_ms)
          .EndObject();
    }
    report.EndArray().EndObject();
    if (!WriteJsonReport(json, report)) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace capellini::bench

int main(int argc, char** argv) { return capellini::bench::Main(argc, argv); }

// Experiment-engine benchmark: sweeps the corpus x algorithms cross product
// through RunMany serially and with the requested worker count, reports
// wall-clock throughput, and verifies the two runs produce bit-identical
// records (the engine's determinism contract). With --json=PATH the results
// are also written as machine-readable JSON (CI uploads this artifact and
// fails the build when the checksums diverge).
//
//   bench_runner                   # quick tier, hardware-concurrency workers
//   bench_runner --threads=8 --json=BENCH_sweep.json
//   bench_runner --full --platform=Pascal
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "support/table.h"
#include "support/thread_pool.h"

namespace capellini::bench {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

// FNV-1a over the deterministic fields of a record sequence. Wall-clock
// fields (preprocessing_ms) are excluded: everything else — status, cycles,
// counters, the solution vector itself — must match bit for bit between the
// serial and parallel engines.
std::uint64_t Fnv1a(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t ChecksumRecords(const std::vector<RunRecord>& records) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const RunRecord& record : records) {
    hash = Fnv1a(hash, record.matrix.data(), record.matrix.size());
    const int algorithm = static_cast<int>(record.algorithm);
    hash = Fnv1a(hash, &algorithm, sizeof(algorithm));
    const int code = static_cast<int>(record.status.code());
    hash = Fnv1a(hash, &code, sizeof(code));
    const std::string& message = record.status.ok() ? "" : record.status.message();
    hash = Fnv1a(hash, message.data(), message.size());
    hash = Fnv1a(hash, &record.correct, sizeof(record.correct));
    hash = Fnv1a(hash, &record.max_rel_error, sizeof(record.max_rel_error));
    const sim::LaunchStats& stats = record.result.stats;
    hash = Fnv1a(hash, &stats, sizeof(stats));
    hash = Fnv1a(hash, &record.result.exec_ms, sizeof(record.result.exec_ms));
    hash = Fnv1a(hash, &record.result.gflops, sizeof(record.result.gflops));
    if (!record.result.x.empty()) {
      hash = Fnv1a(hash, record.result.x.data(),
                   record.result.x.size() * sizeof(Val));
    }
  }
  return hash;
}

std::uint64_t TotalCycles(const std::vector<RunRecord>& records) {
  std::uint64_t cycles = 0;
  for (const RunRecord& record : records) {
    if (record.status.ok()) cycles += record.result.stats.cycles;
  }
  return cycles;
}

struct PlatformSweep {
  std::string platform;
  std::size_t runs = 0;
  double serial_wall_ms = 0.0;
  double parallel_wall_ms = 0.0;
  std::uint64_t total_cycles = 0;
  // Interpreter speed: host nanoseconds of SINGLE-THREADED wall clock per
  // simulated device cycle. The serial run is used so the metric is not
  // confounded by worker count; tracked in BENCH_sweep.json from PR 7 on.
  double host_ns_per_sim_cycle = 0.0;
  std::uint64_t checksum_serial = 0;
  std::uint64_t checksum_parallel = 0;
  std::vector<std::pair<std::string, double>> algorithm_gflops;
};

int Main(int argc, char** argv) {
  BenchOptions options = ParseBenchFlags(argc, argv);
  const int threads = options.threads == 0
                          ? ThreadPool::HardwareConcurrency()
                          : static_cast<int>(options.threads);

  const std::vector<NamedMatrix> corpus =
      GranularityCorpus(ToCorpusOptions(options));
  const std::vector<kernels::DeviceAlgorithm> algorithms = {
      kernels::DeviceAlgorithm::kSyncFreeCsc,
      kernels::DeviceAlgorithm::kSyncFreeWarpCsr,
      kernels::DeviceAlgorithm::kCusparseProxy,
      kernels::DeviceAlgorithm::kCapelliniTwoPhase,
      kernels::DeviceAlgorithm::kCapelliniWritingFirst,
      kernels::DeviceAlgorithm::kHybrid,
  };

  std::printf(
      "Experiment-engine sweep: %zu matrices x %zu algorithms, serial vs "
      "%d worker thread%s.\n\n",
      corpus.size(), algorithms.size(), threads, threads == 1 ? "" : "s");

  ExperimentOptions serial_options = ToExperimentOptions(options);
  serial_options.threads = 1;
  ExperimentOptions parallel_options = ToExperimentOptions(options);
  parallel_options.threads = threads;

  bool diverged = false;
  std::vector<PlatformSweep> sweeps;
  TextTable table({"Platform", "Runs", "Serial ms", "Parallel ms", "Speedup",
               "Runs/s", "ns/cyc", "Records"});
  for (const sim::DeviceConfig& config : SelectedPlatforms(options)) {
    PlatformSweep sweep;
    sweep.platform = config.name;

    const auto serial_begin = Clock::now();
    const auto serial_records =
        RunMany(corpus, algorithms, config, serial_options);
    sweep.serial_wall_ms = ElapsedMs(serial_begin, Clock::now());

    const auto parallel_begin = Clock::now();
    const auto parallel_records =
        RunMany(corpus, algorithms, config, parallel_options);
    sweep.parallel_wall_ms = ElapsedMs(parallel_begin, Clock::now());

    sweep.runs = parallel_records.size();
    sweep.total_cycles = TotalCycles(parallel_records);
    sweep.host_ns_per_sim_cycle =
        sweep.total_cycles > 0
            ? sweep.serial_wall_ms * 1e6 /
                  static_cast<double>(sweep.total_cycles)
            : 0.0;
    sweep.checksum_serial = ChecksumRecords(serial_records);
    sweep.checksum_parallel = ChecksumRecords(parallel_records);
    for (const kernels::DeviceAlgorithm algorithm : algorithms) {
      sweep.algorithm_gflops.emplace_back(
          kernels::DeviceAlgorithmName(algorithm),
          MeanGflops(parallel_records, algorithm));
    }

    const bool match = sweep.checksum_serial == sweep.checksum_parallel;
    if (!match) diverged = true;
    const double parallel_s = sweep.parallel_wall_ms / 1000.0;
    table.AddRow(
        {sweep.platform, std::to_string(sweep.runs),
         TextTable::Num(sweep.serial_wall_ms, 1),
         TextTable::Num(sweep.parallel_wall_ms, 1),
         TextTable::Num(sweep.parallel_wall_ms > 0.0
                          ? sweep.serial_wall_ms / sweep.parallel_wall_ms
                          : 0.0,
                      2),
         TextTable::Num(parallel_s > 0.0
                          ? static_cast<double>(sweep.runs) / parallel_s
                          : 0.0,
                      1),
         TextTable::Num(sweep.host_ns_per_sim_cycle, 1),
         match ? "identical" : "DIVERGED"});
    sweeps.push_back(std::move(sweep));
  }
  std::printf("%s", table.ToString().c_str());

  std::printf("\nPer-algorithm mean GFLOPS (parallel run):\n");
  TextTable gflops_table({"Platform", "Algorithm", "GFLOPS"});
  for (const PlatformSweep& sweep : sweeps) {
    for (const auto& [name, gflops] : sweep.algorithm_gflops) {
      gflops_table.AddRow({sweep.platform, name, TextTable::Num(gflops, 2)});
    }
  }
  std::printf("%s", gflops_table.ToString().c_str());

  if (!options.json.empty()) {
    JsonWriter json;
    json.BeginObject()
        .Key("tier").String(options.full ? "full" : "quick")
        .Key("threads").Int(threads)
        .Key("platforms").BeginArray();
    for (const PlatformSweep& sweep : sweeps) {
      const double parallel_s = sweep.parallel_wall_ms / 1000.0;
      json.BeginObject()
          .Key("platform").String(sweep.platform)
          .Key("runs").Int(sweep.runs)
          .Key("serial_wall_ms").Double(sweep.serial_wall_ms)
          .Key("parallel_wall_ms").Double(sweep.parallel_wall_ms)
          .Key("speedup")
          .Double(sweep.parallel_wall_ms > 0.0
                      ? sweep.serial_wall_ms / sweep.parallel_wall_ms
                      : 0.0)
          .Key("runs_per_sec")
          .Double(parallel_s > 0.0
                      ? static_cast<double>(sweep.runs) / parallel_s
                      : 0.0)
          .Key("total_simulated_cycles").Int(sweep.total_cycles)
          .Key("host_ns_per_sim_cycle").Double(sweep.host_ns_per_sim_cycle)
          .Key("checksum_serial").Hex(sweep.checksum_serial)
          .Key("checksum_parallel").Hex(sweep.checksum_parallel)
          .Key("checksums_match")
          .Bool(sweep.checksum_serial == sweep.checksum_parallel)
          .Key("algorithms").BeginArray();
      for (const auto& [name, gflops] : sweep.algorithm_gflops) {
        json.BeginObject()
            .Key("name").String(name)
            .Key("mean_gflops").Double(gflops)
            .EndObject();
      }
      json.EndArray().EndObject();
    }
    json.EndArray().EndObject();
    if (!WriteJsonReport(options.json, json)) return 2;
  }
  if (diverged) {
    std::fprintf(stderr,
                 "\nFAIL: parallel records diverge from the serial run\n");
    return 1;
  }
  std::printf("\nSerial and parallel record checksums match on every "
              "platform.\n");
  return 0;
}

}  // namespace
}  // namespace capellini::bench

int main(int argc, char** argv) { return capellini::bench::Main(argc, argv); }

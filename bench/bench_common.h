// Shared scaffolding for the per-table/per-figure benchmark binaries.
//
// Every binary accepts the same flags:
//   --full            use the larger corpus tier (default: quick)
//   --target_rows=N   override rows per generated matrix
//   --seed=N          corpus seed
//   --progress        per-run progress lines on stderr
//   --platform=NAME   restrict to one platform (Pascal|Volta|Turing)
//   --threads=N       worker threads for the experiment engine
//                     (0 = hardware concurrency; results are identical
//                     for every value)
//   --json=PATH       also write machine-readable results to PATH
//                     (consumed by bench_runner / CI)
//
// Absolute numbers come from the SIMT simulator (DESIGN.md §2); EXPERIMENTS.md
// records how each printed table compares with the paper.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "gen/corpus.h"
#include "gen/proxies.h"
#include "sim/config.h"
#include "support/cli.h"
#include "support/json.h"
#include "support/table.h"

namespace capellini::bench {

struct BenchOptions {
  bool full = false;
  std::int64_t target_rows = 0;  // 0 = tier default
  std::int64_t seed = 0xC0FFEE;
  bool progress = false;
  std::string platform;  // empty = all
  std::int64_t threads = 1;  // 0 = hardware concurrency
  std::string json;          // empty = no JSON output
};

/// Parses the common flags; exits on --help or bad flags.
inline BenchOptions ParseBenchFlags(int argc, char** argv,
                                    CliFlags* extra = nullptr) {
  BenchOptions options;
  CliFlags local;
  CliFlags& flags = extra != nullptr ? *extra : local;
  flags.AddBool("full", &options.full, "use the larger corpus tier");
  flags.AddInt("target_rows", &options.target_rows,
               "rows per generated matrix (0 = tier default)");
  flags.AddInt("seed", &options.seed, "corpus seed");
  flags.AddBool("progress", &options.progress, "per-run progress on stderr");
  flags.AddString("platform", &options.platform,
                  "run only this platform (Pascal|Volta|Turing)");
  flags.AddInt("threads", &options.threads,
               "worker threads (0 = hardware concurrency, 1 = serial)");
  flags.AddString("json", &options.json,
                  "write machine-readable results to this path");
  const Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    if (status.code() != StatusCode::kNotFound || status.message() != "help") {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
    }
    std::exit(status.code() == StatusCode::kNotFound ? 0 : 2);
  }
  return options;
}

/// Writes a bench's --json report; false (after saying why) if that fails.
inline bool WriteJsonReport(const std::string& path,
                            const JsonWriter& json) {
  if (const Status status = WriteFile(path, json.str()); !status.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", status.ToString().c_str());
    return false;
  }
  std::printf("JSON written to %s\n", path.c_str());
  return true;
}

inline CorpusOptions ToCorpusOptions(const BenchOptions& options) {
  CorpusOptions corpus;
  corpus.tier = options.full ? CorpusTier::kFull : CorpusTier::kQuick;
  corpus.seed = static_cast<std::uint64_t>(options.seed);
  corpus.target_rows = static_cast<Idx>(options.target_rows);
  return corpus;
}

inline ExperimentOptions ToExperimentOptions(const BenchOptions& options) {
  ExperimentOptions experiment;
  experiment.progress = options.progress;
  experiment.threads = static_cast<int>(options.threads);
  return experiment;
}

/// Platforms selected by --platform (all three by default).
inline std::vector<sim::DeviceConfig> SelectedPlatforms(
    const BenchOptions& options) {
  std::vector<sim::DeviceConfig> platforms = sim::PaperPlatforms();
  if (!options.platform.empty()) {
    std::erase_if(platforms, [&](const sim::DeviceConfig& config) {
      return config.name != options.platform;
    });
    if (platforms.empty()) {
      std::fprintf(stderr, "unknown platform '%s'\n",
                   options.platform.c_str());
      std::exit(2);
    }
  }
  return platforms;
}

/// Granularity bin [lo, hi) aggregation used by the figure benches.
struct GranularityBin {
  double lo = 0.0;
  double hi = 0.0;
  int count = 0;
  double sum_value = 0.0;

  double Mean() const { return count == 0 ? 0.0 : sum_value / count; }
};

inline std::vector<GranularityBin> MakeBins(double lo, double hi,
                                            double width) {
  std::vector<GranularityBin> bins;
  for (double x = lo; x < hi - 1e-12; x += width) {
    bins.push_back(GranularityBin{x, x + width, 0, 0.0});
  }
  return bins;
}

inline void AddToBin(std::vector<GranularityBin>& bins, double key,
                     double value) {
  for (GranularityBin& bin : bins) {
    if (key >= bin.lo && key < bin.hi) {
      ++bin.count;
      bin.sum_value += value;
      return;
    }
  }
}

/// An ASCII bar for the figure benches (value scaled to `max` over `width`
/// characters).
inline std::string Bar(double value, double max, int width = 40) {
  if (max <= 0.0) return "";
  int n = static_cast<int>(value / max * width + 0.5);
  if (n < 0) n = 0;
  if (n > width) n = width;
  return std::string(static_cast<std::size_t>(n), '#');
}

}  // namespace capellini::bench

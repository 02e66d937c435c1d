// perfbench: one benchmark run.
//
//   perfbench --workload serve_zipf|update_mix|fleet_solve --seed N
//             --seconds S --trace 0|1 [--trace-out PATH]
//
// --trace 0: runs the closed loop over the whole decks that take about S
// seconds on the reference box, in passes of at most kMaxDecksPerPass decks,
// and prints the end-to-end metrics as medians over the passes. setup_s is
// the median of kSetupReps setups, timed before each pass and after the last.
// --trace 1: runs a third of that work three times, each from a fresh setup —
// untraced, traced, untraced — and prints the per-layer metrics of the traced
// pass, including its overhead against the untraced ones. The last stdout
// line is the JSON result; the exit code is 1 on any wrong answer.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

// One setup takes about 30 ms; setup_s is the median of this many. An
// untraced run times them in windows spread over the run (see SetupWindow).
constexpr int kSetupReps = 51;

/// Setups timed in window `index` of `windows`: kSetupReps split evenly.
/// All in one window, at the start of a run, the median of 51 setups still
/// followed the host's speed over those 1.5 s, which moves by several percent
/// from second to second: setup_s spread 13-28% across ten runs, against
/// 7-20% for the metrics measured over the whole run.
int SetupWindow(std::size_t index, std::size_t windows) {
  const auto reps = static_cast<std::size_t>(kSetupReps);
  // A pass needs a setup before it, even in a run of more than 50 passes.
  return static_cast<int>(
      std::max<std::size_t>(1, reps / windows + (index < reps % windows ? 1 : 0)));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_zipf|update_mix|fleet_solve --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n",
               error);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      value = argv[++i];
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') args.seconds = 0.0;
    } else if (flag == "--trace") {
      args.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) Usage("--seed needs a whole number");
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    Usage("--seconds must be in (0, 600]");
  }
  if (args.trace < 0) Usage("--trace must be 0 or 1");
  return args;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// The highest percentile with at least ten samples above it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // Fewer than 11 samples leave no percentile with ten beyond it; the
  // maximum is the honest stand-in and the '#' line says so.
  const std::size_t index = n > 10 ? n - 11 : n - 1;
  tail.value = values[index];
  tail.percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return tail;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Metrics in print order, each with its unit.
class Metrics {
 public:
  void Add(const char* name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[256];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name, entries_[i].value,
                    entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }
  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("# %-28s %16.6f %s\n", e.name, e.value, e.unit);
    }
  }

 private:
  struct Entry {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

void PrintTail(const char* name, const Tail& tail) {
  std::printf("# %s is p%.1f of %zu samples%s\n", name, tail.percentile,
              tail.samples,
              tail.samples > 10 ? "" : " (under 11 samples: the maximum)");
}

Metrics EndToEnd(const std::vector<PassStats>& passes,
                 const std::vector<SetupStats>& setups, double peak_rss_mb) {
  std::vector<double> setup_s, throughput, p50, tail;
  for (const SetupStats& s : setups) setup_s.push_back(s.seconds);
  for (const PassStats& pass : passes) {
    throughput.push_back(Ratio(static_cast<double>(pass.completed), pass.wall_s));
    p50.push_back(Median(pass.latency_ms));
    tail.push_back(TailOf(pass.latency_ms).value);
    std::printf("# pass %zu: %.1f ops/s, p50 %.4f ms, tail %.4f ms\n",
                throughput.size(), throughput.back(), p50.back(), tail.back());
  }
  PrintTail("latency_tail_ms", TailOf(passes.front().latency_ms));
  std::printf("# throughput and latencies are medians over %zu pass(es)\n",
              passes.size());
  Metrics m;
  m.Add("throughput_ops", Median(throughput), "1/s");
  m.Add("latency_p50_ms", Median(p50), "ms");
  m.Add("latency_tail_ms", Median(tail), "ms");
  m.Add("setup_s", Median(setup_s), "s");
  m.Add("peak_rss_mb", peak_rss_mb, "MB");
  return m;
}

Metrics PerLayer(const PassStats& t, double untraced_s,
                 const std::vector<SetupStats>& setups,
                 const std::vector<double>& self_ms) {
  std::vector<double> register_ms, analysis_ms;
  for (const SetupStats& s : setups) {
    register_ms.push_back(s.register_ms);
    analysis_ms.push_back(s.analysis_ms);
  }
  const double solves = static_cast<double>(t.latency_ms.size());
  const double updates = static_cast<double>(t.update_ms.size());
  const double busiest =
      t.device_host_ms.empty()
          ? 0.0
          : *std::max_element(t.device_host_ms.begin(), t.device_host_ms.end());
  double device_total = 0.0;
  for (const double ms : t.device_host_ms) device_total += ms;
  const Tail update_tail = TailOf(t.update_ms);
  const Tail wait_tail = TailOf(t.queue_wait_ms);
  PrintTail("update_tail_ms", update_tail);
  PrintTail("serve.queue_wait_tail_ms", wait_tail);
  for (std::size_t l = 0; l < self_ms.size(); ++l) {
    std::printf("# self time %-8s %12.3f ms\n", LayerName(static_cast<Layer>(l)),
                self_ms[l]);
  }
  std::printf("# benchmark-side inputs and checks: %.1f ms, %.2f%% of the "
              "pass's %.1f ms%s\n",
              t.bench_ms, 100.0 * Ratio(t.bench_ms, 1e3 * t.elapsed_s),
              1e3 * t.elapsed_s,
              t.wall_s < t.elapsed_s ? " (left out of throughput)" : "");

  Metrics m;
  m.Add("sim_ms_per_op", Ratio(t.sim_ms, solves), "sim_ms");
  m.Add("update_p50_ms", Median(t.update_ms), "ms");
  m.Add("update_tail_ms", update_tail.value, "ms");
  m.Add("sim.host_ns_per_cycle", Ratio(1e6 * t.launch_host_ms, t.cycles), "ns/cycle");
  m.Add("sim.cycles_per_op", Ratio(t.cycles, solves), "cycles");
  m.Add("sim.instructions_per_op", Ratio(t.instructions, solves), "count");
  m.Add("sim.dram_bytes_per_op", Ratio(t.dram_bytes, solves), "B");
  m.Add("kernels.launches_per_op", Ratio(t.launches, solves), "count");
  m.Add("serve.queue_wait_ms", Median(t.queue_wait_ms), "ms");
  m.Add("serve.queue_wait_tail_ms", wait_tail.value, "ms");
  m.Add("serve.execute_ms", Median(t.execute_ms), "ms");
  m.Add("serve.launch_width", Ratio(static_cast<double>(t.queue_wait_ms.size()), t.launch_groups), "count");
  m.Add("serve.attempts_per_op", Ratio(t.attempts, solves), "count");
  m.Add("serve.cost_model_ratio", Median(t.cost_ratio), "ratio");
  m.Add("serve.epoch_swaps", t.epoch_swaps, "count");
  m.Add("fleet.submit_us", Median(t.submit_us), "us");
  m.Add("fleet.busiest_device_share", Ratio(busiest, device_total), "ratio");
  m.Add("fleet.register_ms", Median(register_ms), "ms");
  m.Add("fleet.makespan_cycles", Ratio(t.makespan_cycles, solves), "cycles");
  m.Add("fleet.messages", Ratio(t.messages, solves), "count");
  m.Add("fleet.comm_bytes", Ratio(t.comm_bytes, solves), "B");
  m.Add("fleet.balance", Ratio(t.balance, solves), "ratio");
  m.Add("fleet.boundary_stall_share", Ratio(t.boundary_stall_cycles, t.device_cycles), "ratio");
  m.Add("fleet.host_parallelism", Ratio(t.launch_host_ms, t.fleet_wall_ms), "ratio");
  m.Add("fleet.partition_ms", Median(t.partition_ms), "ms");
  m.Add("fleet.makespan_vs_k1", Ratio(t.makespan_vs_k1, solves), "ratio");
  m.Add("fleet.rows_reexecuted", t.rows_reexecuted, "count");
  m.Add("update.apply_ms", Mean(t.update_ms), "ms");
  m.Add("update.relevel_ms", Ratio(t.relevel_ms, updates), "ms");
  m.Add("update.rows_releveled", Ratio(t.rows_releveled, updates), "count");
  m.Add("update.cone_fraction", Ratio(t.cone_fraction, updates), "ratio");
  m.Add("update.delta_log_bytes", t.delta_log_bytes, "B");
  m.Add("core.verify_ms", Mean(t.verify_ms), "ms");
  m.Add("graph.analysis_ms", Median(analysis_ms), "ms");
  m.Add("bench.generator_lag_ms", Mean(t.lag_ms), "ms");
  m.Add("bench.trace_overhead_pct",
        100.0 * (Ratio(t.wall_s, untraced_s) - 1.0), "%");
  return m;
}

/// Host seconds one deck of each workload takes on the reference box
/// (NOTES.md). They turn --seconds into a fixed amount of work, so every run
/// of a seed does identical work whatever the host speed.
double DeckSeconds(const std::string& workload) {
  if (workload == "serve_zipf") return 1.5;
  if (workload == "update_mix") return 0.15;
  return 8.7;  // fleet_solve
}

/// Decks in one pass. At 20 decks the heaviest factor (one solve per deck)
/// has 20 samples, so the tail (ten samples beyond it) sits at their median
/// instead of in their last few, which host hiccups decide.
constexpr double kMaxDecksPerPass = 20;

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) Usage(("unknown workload " + args.workload).c_str());

  const double decks = args.seconds / DeckSeconds(args.workload);
  const double pass_decks = std::max(1.0, std::min(kMaxDecksPerPass, std::round(decks)));
  const auto count = static_cast<std::size_t>(
      std::max(1.0, std::round(decks / pass_decks)));
  // An untraced run times its setups before each pass and after the last.
  const std::size_t windows = args.trace == 0 ? count + 1 : 1;

  Tracer off(false);
  std::vector<SetupStats> setups = workload->Setup(off, SetupWindow(0, windows));
  std::printf("# peak_rss_mb after setup: %.1f MB\n", PeakRssMb());

  const std::size_t deck_ops =
      OpStream(workload->matrices(), 0, args.workload == "update_mix").deck_ops();
  PassOptions options;
  options.tracer = &off;
  // Every pass runs from a fresh setup. An untraced run splits its work into
  // passes of at most kMaxDecksPerPass decks, each on its own seed, and
  // reports medians over them. A traced run brackets its traced pass with two
  // untraced ones on the same seed, each a third of the work, and measures
  // the overhead against their mean, which cancels drift and the first
  // pass's warm-up.
  std::vector<PassStats> passes;
  Metrics metrics;
  if (args.trace == 0) {
    options.ops = deck_ops * static_cast<std::size_t>(pass_decks);
    passes.resize(count);
    double peak_rss_mb = 0.0;
    for (std::size_t p = 0; p < count; ++p) {
      workload->Run(options, args.seed + p * 0x9E3779B97F4A7C15ULL, passes[p]);
      // The last window only times setups; its churn is not the system's.
      if (p + 1 == count) peak_rss_mb = PeakRssMb();
      const std::vector<SetupStats> more =
          workload->Setup(off, SetupWindow(p + 1, windows));
      setups.insert(setups.end(), more.begin(), more.end());
    }
    metrics = EndToEnd(passes, setups, peak_rss_mb);
  } else {
    passes.resize(3);
    options.ops = deck_ops * static_cast<std::size_t>(std::max(
                                 1.0, std::min(pass_decks, std::round(decks / 3))));
    workload->PrepareTraced(args.seed);
    workload->Run(options, args.seed, passes[0]);

    Tracer tracer(true);
    workload->Setup(tracer, 1);
    options.tracer = &tracer;
    workload->Run(options, args.seed, passes[1]);

    workload->Setup(off, 1);
    options.tracer = &off;
    workload->Run(options, args.seed, passes[2]);

    const double untraced_s = 0.5 * (passes[0].wall_s + passes[2].wall_s);
    metrics = PerLayer(passes[1], untraced_s, setups, tracer.SelfMsByLayer());
    if (!args.trace_out.empty() && !tracer.WriteChromeJson(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    }
  }

  std::uint64_t attempted = 0, failed = 0, wrong = 0;
  for (const PassStats& pass : passes) {
    attempted += pass.attempted;
    failed += pass.failed + pass.refused + pass.wrong;
    wrong += pass.wrong;
  }
  const bool correct = wrong == 0;
  metrics.Print();
  std::printf("# %s seed %llu: %llu ops attempted, %llu failed/refused/wrong\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

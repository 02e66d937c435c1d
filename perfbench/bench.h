// perfbench: the repository benchmark. One process runs one named workload
// from a seed, drives the library only through its public calls, checks every
// answer and prints the metrics as one JSON line (see NOTES.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gen/proxies.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ---------------------------------------------------------------- tracing

/// The repository's modules, as span and metric prefixes. kBench marks the
/// benchmark's own work (input generation, answer checks, whole setups).
enum class Layer { kBench, kFleet, kServe, kUpdate, kCore, kGraph, kCount };
const char* LayerName(Layer layer);

/// In-memory spans and counts, recorded only from the generator thread.
/// Disabled tracers still time every scope (the untraced run pays the same
/// clock reads), they just keep nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Op id stamped on every span and count until the next call.
  void BeginOp(std::uint64_t op) { op_ = op; }

  /// Times one call; nests under the innermost open scope.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, Layer layer);
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Closes the span early (idempotent) and returns its milliseconds.
    double End();
    Clock::time_point start() const { return start_; }

   private:
    Tracer& tracer_;
    std::int32_t index_ = -1;
    Clock::time_point start_;
    double ms_ = -1.0;
  };

  /// A count observed at the current boundary (Chrome counter event).
  void Count(const char* name, double value);

  /// Self milliseconds per layer: each span minus the time its children
  /// cover.
  std::vector<double> SelfMsByLayer() const;
  /// Writes the spans and counts as Chrome trace-event JSON.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Layer layer;
    std::uint64_t op;
    std::int32_t parent;
    Clock::time_point start, end;
  };
  struct Counter {
    const char* name;
    std::uint64_t op;
    Clock::time_point at;
    double value;
  };

  bool enabled_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
  std::vector<std::int32_t> open_;  // stack of open span indices
  Clock::time_point origin_ = Clock::now();
};

// ----------------------------------------------------------------- inputs

/// The high-granularity corpus (7 matrices of 58k-128k rows), sorted by nnz,
/// smallest first.
std::vector<capellini::NamedMatrix> MakeCorpus();

/// One operation of a workload's seeded sequence.
struct Op {
  int matrix = 0;             // index into the corpus / handle list
  std::uint64_t seed = 0;     // right-hand side or delta-batch seed
  bool update = false;        // a DeltaBatch instead of a solve
  bool structural = false;    // the kind of the solve's DeltaBatch
};

/// Zipf(1.1) popularity over the corpus, drawn as shuffled "decks": each deck
/// holds round(kDeckScale / rank^1.1) copies of every rank, so every whole
/// deck has the same mix and only the order depends on the seed. Rank r is
/// corpus matrix r (MakeCorpus sorts by nnz, so the smallest factor is the
/// hottest). With `updates`, each solve is followed by a DeltaBatch on the
/// same matrix. Half of each rank's batches are structural: the copies of a
/// rank alternate, and a rank with an odd count starts each deck where the
/// last one stopped, so every two decks hold the same mix of batches too.
class OpStream {
 public:
  OpStream(int num_matrices, std::uint64_t seed, bool updates);
  Op Next();
  /// Ops per deck, counting updates.
  std::size_t deck_ops() const;

 private:
  void Refill();

  struct Card {
    int matrix;
    bool structural;
  };

  std::vector<int> counts_;
  std::vector<Card> deck_;
  std::uint64_t decks_ = 0;
  std::size_t next_ = 0;
  std::uint64_t state_;
  bool updates_;
  bool pending_update_ = false;
  Op last_solve_;
};

// ---------------------------------------------------------------- results

/// Everything one measured pass observed. Samples are in milliseconds.
struct PassStats {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;   // error status from the system
  std::uint64_t refused = 0;  // admission refusals
  std::uint64_t wrong = 0;    // answers that failed a check
  double elapsed_s = 0.0;     // first op start to last completion
  double wall_s = 0.0;        // elapsed_s, less bench_ms in the workloads
                              // that run one op at a time
  double bench_ms = 0.0;      // generator-side inputs and answer checks

  std::vector<double> latency_ms;  // solve submit -> observed completion
  std::vector<double> queue_wait_ms;
  std::vector<double> execute_ms;  // latency - queue wait
  std::vector<double> update_ms;   // ApplyDelta calls
  std::vector<double> submit_us;
  std::vector<double> verify_ms;   // the benchmark's VerifySolution calls
  std::vector<double> lag_ms;      // generator lag bound per completion
  std::vector<double> partition_ms;
  std::vector<double> cost_ratio;  // est_cost_ms / execute ms per request
  double attempts = 0.0;           // summed ServeResult::attempts

  // Distinct launches (device, dequeue_seq) or fleet devices, each once.
  double launches = 0.0;
  double launch_groups = 0.0;
  double sim_ms = 0.0;
  double cycles = 0.0;
  double instructions = 0.0;
  double dram_bytes = 0.0;
  double launch_host_ms = 0.0;     // host ms of the launches counted above
  std::vector<double> device_host_ms;

  // update_mix
  double relevel_ms = 0.0;
  double rows_releveled = 0.0;
  double cone_fraction = 0.0;
  double delta_log_bytes = 0.0;
  double epoch_swaps = 0.0;

  // fleet_solve
  double makespan_cycles = 0.0;
  double messages = 0.0;
  double comm_bytes = 0.0;
  double balance = 0.0;            // summed per op
  double boundary_stall_cycles = 0.0;
  double device_cycles = 0.0;
  double fleet_wall_ms = 0.0;      // sum of Solve wall
  double makespan_vs_k1 = 0.0;     // summed per op
  double rows_reexecuted = 0.0;
};

/// What one setup (construction + registration) cost.
struct SetupStats {
  double seconds = 0.0;
  double register_ms = 0.0;  // summed Register calls (facade workloads)
  double analysis_ms = 0.0;  // summed cold analysis
};

struct PassOptions {
  std::size_t ops = 0;        // whole decks of the op sequence
  Tracer* tracer = nullptr;
};

/// A workload owns the system under test. Setup() generates the corpus,
/// builds the system from scratch `reps` times (dropping the previous one;
/// only construction and registration are timed) and drops its own copy of
/// the corpus, so no benchmark-side copy sits beside the system during a
/// pass. Run() drives one pass against the last system built.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::vector<SetupStats> Setup(Tracer& tracer, int reps) = 0;
  virtual void Run(const PassOptions& options, std::uint64_t seed,
                   PassStats& stats) = 0;
  /// Traced-run preparation outside any timed pass (e.g. K=1 references).
  virtual void PrepareTraced(std::uint64_t /*seed*/) {}
  /// Corpus matrices the last Setup() registered.
  virtual int matrices() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

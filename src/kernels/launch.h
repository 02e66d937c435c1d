// Host-side solve drivers: set up device buffers, run per-algorithm
// preprocessing (measured in real host milliseconds, as in the paper's
// Table 1), launch the kernel(s) on the simulated device, and read back the
// solution together with the modeled performance counters.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "matrix/csr.h"
#include "sim/config.h"
#include "sim/counters.h"
#include "support/status.h"

namespace capellini::trace {
class TraceSink;
}

namespace capellini::sim {
class FaultInjector;
class Machine;
class DeviceMemory;
}

namespace capellini::kernels {

/// The SpTRSV implementations that run on the simulated device.
enum class DeviceAlgorithm {
  kSerialRow,              // Algorithm 1, one device thread (reference)
  kLevelSet,               // Algorithm 2, one launch per level
  kSyncFreeCsc,            // Liu et al. [20] — the paper's SyncFree baseline
  kSyncFreeWarpCsr,        // Algorithm 3 as printed (CSR, warp per row)
  kCusparseProxy,          // black-box cuSPARSE stand-in (see DESIGN.md)
  kCapelliniNaive,         // deadlocking strawman (Challenge 1)
  kCapelliniTwoPhase,      // Algorithm 4
  kCapelliniWritingFirst,  // Algorithm 5 — the paper's CapelliniSpTRSV
  kHybrid,                 // §4.4 warp/thread fusion
};

/// Short display name ("SyncFree", "Capellini", ...), as used in the paper's
/// tables.
const char* DeviceAlgorithmName(DeviceAlgorithm algorithm);

struct SolveOptions {
  int threads_per_block = 256;
  /// Hybrid only: rows with at least this many nonzeros go warp-level.
  Idx hybrid_row_length_threshold = 16;
  /// Execution-trace observer attached to the simulated machine for the
  /// solve's launches (see trace/sink.h). Not owned; nullptr = tracing off
  /// with zero overhead.
  trace::TraceSink* trace_sink = nullptr;
  /// Fault injector attached to the simulated machine (see sim/fault.h).
  /// Not owned; nullptr = injection off with zero overhead.
  sim::FaultInjector* fault_injector = nullptr;
};

struct DeviceSolveResult {
  std::vector<Val> x;
  sim::LaunchStats stats;
  /// Host preprocessing time (level-set build, CSC conversion, ...), measured
  /// wall-clock milliseconds — Capellini's is ~0 by design.
  double preprocessing_ms = 0.0;
  /// Simulated kernel execution time.
  double exec_ms = 0.0;
  /// 2*nnz / exec time — the paper's throughput metric.
  double gflops = 0.0;
  /// Modeled DRAM read+write bandwidth over the execution (Figure 7).
  double bandwidth_gbs = 0.0;
};

/// Solves lower * x = b with the chosen algorithm on a simulated `config`
/// device. `lower` must satisfy IsLowerTriangularWithDiagonal().
/// Fails with StatusCode::kDeadlock if the kernel deadlocks (the naive
/// thread-level kernel does, on matrices with intra-warp dependencies).
Expected<DeviceSolveResult> SolveOnDevice(DeviceAlgorithm algorithm,
                                          const Csr& lower,
                                          std::span<const Val> b,
                                          const sim::DeviceConfig& config,
                                          const SolveOptions& options = {});

/// All device algorithms, for parameterized tests.
std::vector<DeviceAlgorithm> AllDeviceAlgorithms();

// --- Partitioned launches (multi-device fleet, src/fleet) ------------------

/// One remote x-component delivered to a device: at `cycle` (this device's
/// within-launch clock) the value and its get_value flag land together, so
/// local rows spin on the flag exactly as they would for an on-device
/// producer.
struct RangeArrival {
  Idx row = 0;                // global row index, outside the local range
  Val value = 0.0;            // x[row]
  std::uint64_t cycle = 0;    // arrival cycle
};

/// The remote side of a partitioned launch, in global rows: it delivers
/// remote x-components while the launch runs and hears every local row the
/// launch publishes. SolveRangeOnDevice turns it into the machine's
/// sim::PeerLink; see that class for the Sync contract.
class RangePeers {
 public:
  /// Sync's answer that cancels the launch.
  static constexpr std::uint64_t kCancel = 0;

  virtual ~RangePeers() = default;
  /// Remote rows the launch receives in all.
  virtual std::size_t num_arrivals() const = 0;
  /// Appends the arrivals that became known and returns the horizon, or
  /// kCancel (sim::PeerLink::Sync in rows).
  virtual std::uint64_t Sync(std::uint64_t cycle,
                             std::vector<RangeArrival>& arrivals) = 0;
  /// Local `row`'s flag publish landed at `cycle`; `value` is its x.
  virtual void OnPublish(Idx row, Val value, std::uint64_t cycle) = 0;
};

/// A fully known arrival list: all of it at the first Sync, with an
/// unbounded horizon.
class KnownArrivals final : public RangePeers {
 public:
  explicit KnownArrivals(std::span<const RangeArrival> arrivals)
      : arrivals_(arrivals) {}
  std::size_t num_arrivals() const override { return arrivals_.size(); }
  std::uint64_t Sync(std::uint64_t /*cycle*/,
                     std::vector<RangeArrival>& arrivals) override {
    arrivals.insert(arrivals.end(), arrivals_.begin(), arrivals_.end());
    return UINT64_MAX;
  }
  void OnPublish(Idx, Val, std::uint64_t) override {}

 private:
  std::span<const RangeArrival> arrivals_;
};

struct RangeSolveResult {
  /// Full-length solution image read back from the device; only entries in
  /// [row_begin, row_end) were computed here (the rest are zeros/arrivals).
  std::vector<Val> x;
  sim::LaunchStats stats;
  /// Simulated kernel execution time (includes launch overhead).
  double exec_ms = 0.0;
  /// Per LOCAL row (index row - row_begin): within-launch cycle at which the
  /// row's flag publish landed, launch overhead excluded. UINT64_MAX when
  /// the publish never landed (dropped by fault injection) — consumers of
  /// that row would spin forever, so the fleet fails dependents fast.
  std::vector<std::uint64_t> publish_cycles;
};

/// Solves the global rows [row_begin, row_end) of lower * x = b on the given
/// machine, with remote dependencies delivered by `peers` while the launch
/// runs. Only the Capellini thread-per-row algorithms (kCapelliniTwoPhase,
/// kCapelliniWritingFirst) are supported. The machine's memory is Reset()
/// and re-uploaded; trace/fault seams come from `options` as usual, and an
/// untraced launch runs with no trace sink. With row_begin = 0,
/// row_end = rows and no arrivals, the computed values are bit-identical to
/// SolveOnDevice (same per-row drain order).
Expected<RangeSolveResult> SolveRangeOnDevice(
    DeviceAlgorithm algorithm, const Csr& lower, std::span<const Val> b,
    Idx row_begin, Idx row_end, RangePeers& peers, sim::Machine& machine,
    sim::DeviceMemory& memory, const SolveOptions& options = {});

// --- Multiple right-hand sides (SpTRSM) ------------------------------------

enum class MrhsAlgorithm {
  kCapelliniMrhs,  // thread-level Writing-First, k systems per pass
  kSyncFreeMrhs,   // warp-level counterpart
};

const char* MrhsAlgorithmName(MrhsAlgorithm algorithm);

struct MrhsSolveResult {
  /// Column-major n x k solution.
  std::vector<Val> x;
  sim::LaunchStats stats;
  double preprocessing_ms = 0.0;
  double exec_ms = 0.0;
  /// 2 * nnz * k / time.
  double gflops = 0.0;
  double bandwidth_gbs = 0.0;
};

/// Solves lower * X = B for k right-hand sides in one launch. `b` is
/// column-major n x k; k must be in [1, 6].
Expected<MrhsSolveResult> SolveMrhsOnDevice(MrhsAlgorithm algorithm,
                                            const Csr& lower,
                                            std::span<const Val> b, int k,
                                            const sim::DeviceConfig& config,
                                            const SolveOptions& options = {});

}  // namespace capellini::kernels

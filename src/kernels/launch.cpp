#include "kernels/launch.h"
#include <array>

#include <algorithm>
#include <mutex>

#include "graph/levels.h"
#include "kernels/common.h"
#include "matrix/convert.h"
#include "matrix/csc.h"
#include "sim/machine.h"
#include "sim/memory.h"
#include "support/timer.h"

namespace capellini::kernels {
namespace {

/// Device images of the shared CSR arrays plus the standard vectors.
struct DeviceProblem {
  sim::DevicePtr row_ptr = 0;
  sim::DevicePtr col_idx = 0;
  sim::DevicePtr val = 0;
  sim::DevicePtr b = 0;
  sim::DevicePtr x = 0;
  sim::DevicePtr get_value = 0;
};

DeviceProblem UploadCsrProblem(const Csr& lower, std::span<const Val> b,
                               sim::DeviceMemory& memory) {
  DeviceProblem dev;
  const auto rows = static_cast<std::uint64_t>(lower.rows());
  const auto nnz = static_cast<std::uint64_t>(lower.nnz());
  dev.row_ptr = memory.AllocArray<Idx>(rows + 1);
  dev.col_idx = memory.AllocArray<Idx>(std::max<std::uint64_t>(1, nnz));
  dev.val = memory.AllocArray<Val>(std::max<std::uint64_t>(1, nnz));
  dev.b = memory.AllocArray<Val>(rows);
  dev.x = memory.AllocArray<Val>(rows);
  dev.get_value = memory.AllocArray<std::int32_t>(rows);
  memory.CopyToDevice(dev.row_ptr, lower.row_ptr());
  memory.CopyToDevice(dev.col_idx, lower.col_idx());
  memory.CopyToDevice(dev.val, lower.val());
  memory.CopyToDevice(dev.b, b);
  memory.Fill(dev.x, rows * sizeof(Val), 0);
  memory.Fill(dev.get_value, rows * sizeof(std::int32_t), 0);
  return dev;
}

std::vector<std::int64_t> BaseParams(const Csr& lower, const DeviceProblem& dev) {
  std::vector<std::int64_t> params(kNumParams, 0);
  params[kParamM] = lower.rows();
  params[kParamRowPtr] = static_cast<std::int64_t>(dev.row_ptr);
  params[kParamColIdx] = static_cast<std::int64_t>(dev.col_idx);
  params[kParamVal] = static_cast<std::int64_t>(dev.val);
  params[kParamB] = static_cast<std::int64_t>(dev.b);
  params[kParamX] = static_cast<std::int64_t>(dev.x);
  params[kParamGetValue] = static_cast<std::int64_t>(dev.get_value);
  return params;
}

const sim::Kernel& CachedKernel(DeviceAlgorithm algorithm) {
  switch (algorithm) {
    case DeviceAlgorithm::kSerialRow: {
      static const sim::Kernel kernel = BuildSerialRowKernel();
      return kernel;
    }
    case DeviceAlgorithm::kLevelSet: {
      static const sim::Kernel kernel = BuildLevelSetKernel();
      return kernel;
    }
    case DeviceAlgorithm::kSyncFreeCsc: {
      static const sim::Kernel kernel = BuildSyncFreeCscKernel();
      return kernel;
    }
    case DeviceAlgorithm::kSyncFreeWarpCsr: {
      static const sim::Kernel kernel = BuildSyncFreeWarpCsrKernel();
      return kernel;
    }
    case DeviceAlgorithm::kCusparseProxy: {
      static const sim::Kernel kernel = BuildCusparseProxyKernel();
      return kernel;
    }
    case DeviceAlgorithm::kCapelliniNaive: {
      static const sim::Kernel kernel = BuildCapelliniNaiveKernel();
      return kernel;
    }
    case DeviceAlgorithm::kCapelliniTwoPhase: {
      static const sim::Kernel kernel = BuildCapelliniTwoPhaseKernel();
      return kernel;
    }
    case DeviceAlgorithm::kCapelliniWritingFirst: {
      static const sim::Kernel kernel = BuildCapelliniWritingFirstKernel();
      return kernel;
    }
    case DeviceAlgorithm::kHybrid: {
      static const sim::Kernel kernel = BuildHybridKernel();
      return kernel;
    }
  }
  CAPELLINI_CHECK_MSG(false, "unknown algorithm");
  static const sim::Kernel unreachable;
  return unreachable;
}

}  // namespace

const char* DeviceAlgorithmName(DeviceAlgorithm algorithm) {
  switch (algorithm) {
    case DeviceAlgorithm::kSerialRow:
      return "SerialRow";
    case DeviceAlgorithm::kLevelSet:
      return "Level-Set";
    case DeviceAlgorithm::kSyncFreeCsc:
      return "SyncFree";
    case DeviceAlgorithm::kSyncFreeWarpCsr:
      return "SyncFree-CSR";
    case DeviceAlgorithm::kCusparseProxy:
      return "cuSPARSE";
    case DeviceAlgorithm::kCapelliniNaive:
      return "Capellini-Naive";
    case DeviceAlgorithm::kCapelliniTwoPhase:
      return "Capellini-TwoPhase";
    case DeviceAlgorithm::kCapelliniWritingFirst:
      return "Capellini";
    case DeviceAlgorithm::kHybrid:
      return "Hybrid";
  }
  return "unknown";
}

std::vector<DeviceAlgorithm> AllDeviceAlgorithms() {
  return {DeviceAlgorithm::kSerialRow,
          DeviceAlgorithm::kLevelSet,
          DeviceAlgorithm::kSyncFreeCsc,
          DeviceAlgorithm::kSyncFreeWarpCsr,
          DeviceAlgorithm::kCusparseProxy,
          DeviceAlgorithm::kCapelliniNaive,
          DeviceAlgorithm::kCapelliniTwoPhase,
          DeviceAlgorithm::kCapelliniWritingFirst,
          DeviceAlgorithm::kHybrid};
}

Expected<DeviceSolveResult> SolveOnDevice(DeviceAlgorithm algorithm,
                                          const Csr& lower,
                                          std::span<const Val> b,
                                          const sim::DeviceConfig& config,
                                          const SolveOptions& options) {
  if (!lower.IsLowerTriangularWithDiagonal()) {
    return InvalidArgument(
        "SpTRSV needs a lower-triangular matrix with a full diagonal");
  }
  if (b.size() != static_cast<std::size_t>(lower.rows())) {
    return InvalidArgument("b has the wrong size");
  }
  if (lower.rows() == 0) return InvalidArgument("empty system");

  const std::int64_t m = lower.rows();
  DeviceSolveResult result;
  sim::DeviceMemory memory;
  sim::Machine machine(config, &memory);
  machine.set_trace_sink(options.trace_sink);
  machine.set_fault_injector(options.fault_injector);
  const int threads_per_block = ThreadsPerBlock(config);

  sim::LaunchStats total;
  Timer preprocessing_timer;

  switch (algorithm) {
    case DeviceAlgorithm::kSerialRow: {
      const DeviceProblem dev = UploadCsrProblem(lower, b, memory);
      const auto params = BaseParams(lower, dev);
      result.preprocessing_ms = 0.0;
      auto stats = machine.Launch(CachedKernel(algorithm),
                                  {.num_threads = 32,
                                   .threads_per_block = threads_per_block},
                                  params);
      if (!stats.ok()) return stats.status();
      total = *stats;
      result.x.resize(static_cast<std::size_t>(m));
      memory.CopyFromDevice(std::span<Val>(result.x), dev.x);
      break;
    }

    case DeviceAlgorithm::kLevelSet: {
      // Preprocessing (the expensive part the paper criticizes): the full
      // level-set build — levels, per-level row counts, the reordered `order`
      // array (Algorithm 2's layer/layer_num/order) AND the level-permuted
      // copy of the matrix that makes per-level launches coalesced.
      preprocessing_timer.Reset();
      const LevelSets levels = ComputeLevelSets(lower);
      const Csr permuted = GatherRowsByLevel(lower, levels);
      result.preprocessing_ms = preprocessing_timer.ElapsedMs();

      const DeviceProblem dev = UploadCsrProblem(permuted, b, memory);
      const sim::DevicePtr dev_order =
          memory.AllocArray<Idx>(static_cast<std::uint64_t>(m));
      memory.CopyToDevice(dev_order, std::span<const Idx>(levels.order));

      auto params = BaseParams(permuted, dev);
      params[kParamAux0] = static_cast<std::int64_t>(dev_order);
      // One launch per level; the launch boundary is the synchronization.
      for (Idx level = 0; level < levels.num_levels(); ++level) {
        params[kParamAux1] = levels.level_ptr[static_cast<std::size_t>(level)];
        params[kParamAux2] = levels.LevelSize(level);
        auto stats = machine.Launch(
            CachedKernel(algorithm),
            {.num_threads = levels.LevelSize(level),
             .threads_per_block = threads_per_block},
            params);
        if (!stats.ok()) return stats.status();
        total += *stats;
      }
      result.x.resize(static_cast<std::size_t>(m));
      memory.CopyFromDevice(std::span<Val>(result.x), dev.x);
      break;
    }

    case DeviceAlgorithm::kSyncFreeCsc: {
      // Liu et al.'s solver takes CSC input, so the format conversion is the
      // caller's job, not preprocessing (their measured preprocessing is just
      // the in-degree analysis plus buffer setup — why Table 1 shows it as
      // the cheapest by far).
      const Csc csc = CsrToCsc(lower);
      preprocessing_timer.Reset();
      std::vector<std::int32_t> in_degree(static_cast<std::size_t>(m));
      for (Idx r = 0; r < m; ++r) {
        in_degree[static_cast<std::size_t>(r)] = lower.RowLen(r) - 1;
      }
      result.preprocessing_ms = preprocessing_timer.ElapsedMs();

      const auto rows = static_cast<std::uint64_t>(m);
      const auto nnz = static_cast<std::uint64_t>(csc.nnz());
      DeviceProblem dev;
      dev.row_ptr = memory.AllocArray<Idx>(rows + 1);  // CSC col_ptr
      dev.col_idx = memory.AllocArray<Idx>(nnz);       // CSC row_idx
      dev.val = memory.AllocArray<Val>(nnz);
      dev.b = memory.AllocArray<Val>(rows);
      dev.x = memory.AllocArray<Val>(rows);
      dev.get_value = memory.AllocArray<std::int32_t>(rows);  // dep counters
      const sim::DevicePtr dev_left_sum = memory.AllocArray<Val>(rows);
      memory.CopyToDevice(dev.row_ptr, csc.col_ptr());
      memory.CopyToDevice(dev.col_idx, csc.row_idx());
      memory.CopyToDevice(dev.val, csc.val());
      memory.CopyToDevice(dev.b, b);
      memory.Fill(dev.x, rows * sizeof(Val), 0);
      memory.CopyToDevice(dev.get_value, std::span<const std::int32_t>(in_degree));
      memory.Fill(dev_left_sum, rows * sizeof(Val), 0);

      auto params = BaseParams(lower, dev);
      params[kParamAux0] = static_cast<std::int64_t>(dev_left_sum);
      auto stats = machine.Launch(CachedKernel(algorithm),
                                  {.num_threads = m * 32,
                                   .threads_per_block = threads_per_block},
                                  params);
      if (!stats.ok()) return stats.status();
      total = *stats;
      result.x.resize(static_cast<std::size_t>(m));
      memory.CopyFromDevice(std::span<Val>(result.x), dev.x);
      break;
    }

    case DeviceAlgorithm::kSyncFreeWarpCsr: {
      // Preprocessing: only the solved-flag array (allocated and zeroed in
      // UploadCsrProblem); nothing to measure beyond noise.
      const DeviceProblem dev = UploadCsrProblem(lower, b, memory);
      result.preprocessing_ms = 0.0;
      const auto params = BaseParams(lower, dev);
      auto stats = machine.Launch(CachedKernel(algorithm),
                                  {.num_threads = m * 32,
                                   .threads_per_block = threads_per_block},
                                  params);
      if (!stats.ok()) return stats.status();
      total = *stats;
      result.x.resize(static_cast<std::size_t>(m));
      memory.CopyFromDevice(std::span<Val>(result.x), dev.x);
      break;
    }

    case DeviceAlgorithm::kCusparseProxy: {
      // csrsv2_analysis equivalent: a level analysis that yields the
      // execution order (cheaper than the full Level-Set preprocessing,
      // which additionally materializes per-level launch metadata).
      preprocessing_timer.Reset();
      const LevelSets levels = ComputeLevelSets(lower);
      result.preprocessing_ms = preprocessing_timer.ElapsedMs();

      const DeviceProblem dev = UploadCsrProblem(lower, b, memory);
      const sim::DevicePtr dev_order =
          memory.AllocArray<Idx>(static_cast<std::uint64_t>(m));
      memory.CopyToDevice(dev_order, std::span<const Idx>(levels.order));
      auto params = BaseParams(lower, dev);
      params[kParamAux0] = static_cast<std::int64_t>(dev_order);
      auto stats = machine.Launch(CachedKernel(algorithm),
                                  {.num_threads = m * 32,
                                   .threads_per_block = threads_per_block},
                                  params);
      if (!stats.ok()) return stats.status();
      total = *stats;
      result.x.resize(static_cast<std::size_t>(m));
      memory.CopyFromDevice(std::span<Val>(result.x), dev.x);
      break;
    }

    case DeviceAlgorithm::kCapelliniNaive:
    case DeviceAlgorithm::kCapelliniTwoPhase:
    case DeviceAlgorithm::kCapelliniWritingFirst: {
      // No preprocessing — the CapelliniSpTRSV design goal.
      const DeviceProblem dev = UploadCsrProblem(lower, b, memory);
      result.preprocessing_ms = 0.0;
      const auto params = BaseParams(lower, dev);
      auto stats = machine.Launch(CachedKernel(algorithm),
                                  {.num_threads = m,
                                   .threads_per_block = threads_per_block},
                                  params);
      if (!stats.ok()) return stats.status();
      total = *stats;
      result.x.resize(static_cast<std::size_t>(m));
      memory.CopyFromDevice(std::span<Val>(result.x), dev.x);
      break;
    }

    case DeviceAlgorithm::kHybrid: {
      // Preprocessing (§4.4): one scan over row lengths to build the task
      // list — warp-mode task per long row, thread-mode task per pack of up
      // to 32 consecutive short rows.
      preprocessing_timer.Reset();
      std::vector<Idx> task_row;
      std::vector<Idx> task_info;
      const Idx threshold = options.hybrid_row_length_threshold;
      for (Idx r = 0; r < m;) {
        if (lower.RowLen(r) >= threshold) {
          task_row.push_back(r);
          task_info.push_back(0);  // warp mode
          ++r;
        } else {
          Idx count = 0;
          while (r + count < m && count < 32 &&
                 lower.RowLen(r + count) < threshold) {
            ++count;
          }
          task_row.push_back(r);
          task_info.push_back(count);  // thread mode
          r += count;
        }
      }
      result.preprocessing_ms = preprocessing_timer.ElapsedMs();

      const DeviceProblem dev = UploadCsrProblem(lower, b, memory);
      const auto num_tasks = static_cast<std::int64_t>(task_row.size());
      const sim::DevicePtr dev_task_row =
          memory.AllocArray<Idx>(static_cast<std::uint64_t>(num_tasks));
      const sim::DevicePtr dev_task_info =
          memory.AllocArray<Idx>(static_cast<std::uint64_t>(num_tasks));
      memory.CopyToDevice(dev_task_row, std::span<const Idx>(task_row));
      memory.CopyToDevice(dev_task_info, std::span<const Idx>(task_info));

      auto params = BaseParams(lower, dev);
      params[kParamAux0] = static_cast<std::int64_t>(dev_task_row);
      params[kParamAux1] = static_cast<std::int64_t>(dev_task_info);
      auto stats = machine.Launch(CachedKernel(algorithm),
                                  {.num_threads = num_tasks * 32,
                                   .threads_per_block = threads_per_block},
                                  params);
      if (!stats.ok()) return stats.status();
      total = *stats;
      result.x.resize(static_cast<std::size_t>(m));
      memory.CopyFromDevice(std::span<Val>(result.x), dev.x);
      break;
    }
  }

  result.stats = total;
  result.exec_ms = config.CyclesToMs(total.cycles);
  const double seconds = result.exec_ms / 1e3;
  if (seconds > 0.0) {
    result.gflops =
        2.0 * static_cast<double>(lower.nnz()) / seconds / 1e9;
    result.bandwidth_gbs =
        static_cast<double>(total.dram_bytes) / seconds / 1e9;
  }
  return result;
}

namespace {

/// The machine's address-level view of a RangePeers: arrivals become x and
/// get_value stores, and each landed publish of a local flag becomes a row,
/// its x (already stored: the kernels write x before the flag) and the
/// cycle, which is also recorded in `publish_cycles`.
class RangeLink final : public sim::PeerLink {
 public:
  RangeLink(RangePeers& peers, const DeviceProblem& dev, Idx rows,
            Idx row_begin, Idx row_end, const sim::DeviceMemory& memory,
            std::vector<std::uint64_t>& publish_cycles)
      : peers_(peers),
        dev_(dev),
        rows_(rows),
        row_begin_(row_begin),
        row_end_(row_end),
        memory_(memory),
        publish_cycles_(publish_cycles) {}

  std::uint64_t expected_stores() const override {
    return peers_.num_arrivals();
  }

  std::uint64_t Sync(std::uint64_t cycle,
                     std::vector<sim::ExternalStore>& stores) override {
    arrivals_.clear();
    const std::uint64_t horizon = peers_.Sync(cycle, arrivals_);
    if (horizon == RangePeers::kCancel) return sim::PeerLink::kCancel;
    for (const RangeArrival& arrival : arrivals_) {
      CAPELLINI_CHECK_MSG(arrival.row >= 0 && arrival.row < rows_ &&
                              (arrival.row < row_begin_ ||
                               arrival.row >= row_end_),
                          "arrival row outside the remote range");
      const auto row = static_cast<std::uint64_t>(arrival.row);
      stores.push_back(sim::ExternalStore{.cycle = arrival.cycle,
                                          .f64_addr = dev_.x + 8 * row,
                                          .f64_value = arrival.value,
                                          .i32_addr = dev_.get_value + 4 * row,
                                          .i32_value = 1});
    }
    return horizon;
  }

  void OnPublish(std::uint64_t cycle, std::uint64_t addr) override {
    const std::uint64_t first =
        dev_.get_value + 4 * static_cast<std::uint64_t>(row_begin_);
    if (addr < first ||
        addr >= dev_.get_value + 4 * static_cast<std::uint64_t>(row_end_)) {
      return;
    }
    std::uint64_t& slot = publish_cycles_[(addr - first) / 4];
    if (slot != UINT64_MAX) return;
    slot = cycle;
    const Idx row = static_cast<Idx>((addr - dev_.get_value) / 4);
    peers_.OnPublish(
        row, memory_.LoadF64(dev_.x + 8 * static_cast<std::uint64_t>(row)),
        cycle);
  }

 private:
  RangePeers& peers_;
  const DeviceProblem& dev_;
  Idx rows_;
  Idx row_begin_;
  Idx row_end_;
  const sim::DeviceMemory& memory_;
  std::vector<std::uint64_t>& publish_cycles_;
  std::vector<RangeArrival> arrivals_;
};

const sim::Kernel& CachedRangeKernel(DeviceAlgorithm algorithm) {
  if (algorithm == DeviceAlgorithm::kCapelliniTwoPhase) {
    static const sim::Kernel kernel = BuildCapelliniTwoPhaseRangeKernel();
    return kernel;
  }
  static const sim::Kernel kernel = BuildCapelliniWritingFirstRangeKernel();
  return kernel;
}

}  // namespace

Expected<RangeSolveResult> SolveRangeOnDevice(
    DeviceAlgorithm algorithm, const Csr& lower, std::span<const Val> b,
    Idx row_begin, Idx row_end, RangePeers& peers, sim::Machine& machine,
    sim::DeviceMemory& memory, const SolveOptions& options) {
  if (algorithm != DeviceAlgorithm::kCapelliniTwoPhase &&
      algorithm != DeviceAlgorithm::kCapelliniWritingFirst) {
    return InvalidArgument(
        "SolveRangeOnDevice supports the Capellini thread-per-row algorithms "
        "only");
  }
  if (!lower.IsLowerTriangularWithDiagonal()) {
    return InvalidArgument(
        "SpTRSV needs a lower-triangular matrix with a full diagonal");
  }
  const Idx m = lower.rows();
  if (b.size() != static_cast<std::size_t>(m)) {
    return InvalidArgument("b has the wrong size");
  }
  if (row_begin < 0 || row_end > m || row_begin >= row_end) {
    return InvalidArgument("bad row range");
  }

  memory.Reset();
  const DeviceProblem dev = UploadCsrProblem(lower, b, memory);
  auto params = BaseParams(lower, dev);
  params[kParamM] = row_end;      // global end of the local range
  params[kParamAux0] = row_begin; // local thread 0's global row

  RangeSolveResult result;
  result.publish_cycles.assign(
      static_cast<std::size_t>(row_end - row_begin), UINT64_MAX);
  RangeLink link(peers, dev, m, row_begin, row_end, memory,
                 result.publish_cycles);
  machine.set_peer_link(&link);
  machine.set_trace_sink(options.trace_sink);
  machine.set_fault_injector(options.fault_injector);

  auto stats = machine.Launch(
      CachedRangeKernel(algorithm),
      {.num_threads = row_end - row_begin,
       .threads_per_block = ThreadsPerBlock(machine.config())},
      params);
  machine.set_peer_link(nullptr);
  machine.set_trace_sink(nullptr);
  machine.set_fault_injector(nullptr);
  if (!stats.ok()) return stats.status();

  result.stats = *stats;
  result.exec_ms = machine.config().CyclesToMs(result.stats.cycles);
  result.x.resize(static_cast<std::size_t>(m));
  memory.CopyFromDevice(std::span<Val>(result.x), dev.x);
  return result;
}

const char* MrhsAlgorithmName(MrhsAlgorithm algorithm) {
  switch (algorithm) {
    case MrhsAlgorithm::kCapelliniMrhs:
      return "Capellini-mrhs";
    case MrhsAlgorithm::kSyncFreeMrhs:
      return "SyncFree-mrhs";
  }
  return "unknown";
}

Expected<MrhsSolveResult> SolveMrhsOnDevice(MrhsAlgorithm algorithm,
                                            const Csr& lower,
                                            std::span<const Val> b, int k,
                                            const sim::DeviceConfig& config,
                                            const SolveOptions& options) {
  if (!lower.IsLowerTriangularWithDiagonal()) {
    return InvalidArgument(
        "SpTRSM needs a lower-triangular matrix with a full diagonal");
  }
  if (k < 1 || k > 6) return InvalidArgument("k must be in [1, 6]");
  const std::int64_t m = lower.rows();
  if (m == 0) return InvalidArgument("empty system");
  if (b.size() != static_cast<std::size_t>(m) * static_cast<std::size_t>(k)) {
    return InvalidArgument("B must be column-major rows x k");
  }

  // Per-k kernel caches (kernels are parameter-free given k). The mutex makes
  // first-use population safe when solves are fanned across a thread pool;
  // after that the reference is read-only.
  static std::mutex mrhs_cache_mutex;
  static std::array<sim::Kernel, 7> capellini_cache;
  static std::array<sim::Kernel, 7> syncfree_cache;
  sim::Kernel& cached = [&]() -> sim::Kernel& {
    std::lock_guard<std::mutex> lock(mrhs_cache_mutex);
    sim::Kernel& slot =
        algorithm == MrhsAlgorithm::kCapelliniMrhs
            ? capellini_cache[static_cast<std::size_t>(k)]
            : syncfree_cache[static_cast<std::size_t>(k)];
    if (slot.code.empty()) {
      slot = algorithm == MrhsAlgorithm::kCapelliniMrhs
                 ? BuildCapelliniWritingFirstMrhsKernel(k)
                 : BuildSyncFreeWarpMrhsKernel(k);
    }
    return slot;
  }();

  sim::DeviceMemory memory;
  sim::Machine machine(config, &memory);
  machine.set_trace_sink(options.trace_sink);
  machine.set_fault_injector(options.fault_injector);
  const auto rows = static_cast<std::uint64_t>(m);
  const auto nnz = static_cast<std::uint64_t>(lower.nnz());
  const auto vec = rows * static_cast<std::uint64_t>(k);

  DeviceProblem dev;
  dev.row_ptr = memory.AllocArray<Idx>(rows + 1);
  dev.col_idx = memory.AllocArray<Idx>(nnz);
  dev.val = memory.AllocArray<Val>(nnz);
  dev.b = memory.AllocArray<Val>(vec);
  dev.x = memory.AllocArray<Val>(vec);
  dev.get_value = memory.AllocArray<std::int32_t>(rows);
  memory.CopyToDevice(dev.row_ptr, lower.row_ptr());
  memory.CopyToDevice(dev.col_idx, lower.col_idx());
  memory.CopyToDevice(dev.val, lower.val());
  memory.CopyToDevice(dev.b, b);
  memory.Fill(dev.x, vec * sizeof(Val), 0);
  memory.Fill(dev.get_value, rows * sizeof(std::int32_t), 0);

  const auto params = BaseParams(lower, dev);
  const std::int64_t num_threads =
      algorithm == MrhsAlgorithm::kCapelliniMrhs ? m : m * 32;
  auto stats = machine.Launch(cached,
                              {.num_threads = num_threads,
                               .threads_per_block = ThreadsPerBlock(config)},
                              params);
  if (!stats.ok()) return stats.status();

  MrhsSolveResult result;
  result.stats = *stats;
  result.x.resize(static_cast<std::size_t>(vec));
  memory.CopyFromDevice(std::span<Val>(result.x), dev.x);
  result.exec_ms = config.CyclesToMs(result.stats.cycles);
  const double seconds = result.exec_ms / 1e3;
  if (seconds > 0.0) {
    result.gflops = 2.0 * static_cast<double>(lower.nnz()) * k / seconds / 1e9;
    result.bandwidth_gbs =
        static_cast<double>(result.stats.dram_bytes) / seconds / 1e9;
  }
  return result;
}

}  // namespace capellini::kernels

#include "core/solver.h"

#include <algorithm>

#include "core/analysis.h"
#include "core/select.h"
#include "host/levelset_cpu.h"
#include "host/serial.h"
#include "host/syncfree_cpu.h"
#include "matrix/triangular.h"
#include "support/timer.h"

namespace capellini {
namespace {

kernels::DeviceAlgorithm ToDeviceAlgorithm(Algorithm algorithm) {
  using kernels::DeviceAlgorithm;
  switch (algorithm) {
    case Algorithm::kLevelSet:
      return DeviceAlgorithm::kLevelSet;
    case Algorithm::kSyncFree:
      return DeviceAlgorithm::kSyncFreeCsc;
    case Algorithm::kSyncFreeCsr:
      return DeviceAlgorithm::kSyncFreeWarpCsr;
    case Algorithm::kCusparse:
      return DeviceAlgorithm::kCusparseProxy;
    case Algorithm::kCapelliniTwoPhase:
      return DeviceAlgorithm::kCapelliniTwoPhase;
    case Algorithm::kCapellini:
      return DeviceAlgorithm::kCapelliniWritingFirst;
    case Algorithm::kHybrid:
      return DeviceAlgorithm::kHybrid;
    case Algorithm::kCapelliniNaive:
      return DeviceAlgorithm::kCapelliniNaive;
    default:
      CAPELLINI_CHECK_MSG(false, "not a device algorithm");
      return DeviceAlgorithm::kCapelliniWritingFirst;
  }
}

}  // namespace

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSerialCpu:
      return "Serial-CPU";
    case Algorithm::kLevelSetCpu:
      return "Level-Set-CPU";
    case Algorithm::kSyncFreeCpu:
      return "SyncFree-CPU";
    case Algorithm::kLevelSet:
      return "Level-Set";
    case Algorithm::kSyncFree:
      return "SyncFree";
    case Algorithm::kSyncFreeCsr:
      return "SyncFree-CSR";
    case Algorithm::kCusparse:
      return "cuSPARSE";
    case Algorithm::kCapelliniTwoPhase:
      return "Capellini-TwoPhase";
    case Algorithm::kCapellini:
      return "Capellini";
    case Algorithm::kHybrid:
      return "Hybrid";
    case Algorithm::kCapelliniNaive:
      return "Capellini-Naive";
  }
  return "unknown";
}

bool IsDeviceAlgorithm(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSerialCpu:
    case Algorithm::kLevelSetCpu:
    case Algorithm::kSyncFreeCpu:
      return false;
    default:
      return true;
  }
}

Solver::Solver(Csr lower, SolverOptions options)
    : lower_(std::move(lower)), options_(std::move(options)) {
  CAPELLINI_CHECK_MSG(lower_.IsLowerTriangularWithDiagonal(),
                      "Solver needs a lower-triangular matrix with diagonal "
                      "(see ExtractLowerTriangular)");
}

Solver::~Solver() = default;

const Analysis& Solver::analysis() const {
  std::call_once(analysis_once_, [this] {
    analysis_ = std::make_shared<const Analysis>(
        Analyze(lower_, "solver-matrix"));
    analyzed_.store(true, std::memory_order_release);
  });
  return *analysis_;
}

std::shared_ptr<const Analysis> Solver::SharedAnalysis() const {
  analysis();
  return analysis_;
}

void Solver::SeedAnalysis(std::shared_ptr<const Analysis> analysis) const {
  CAPELLINI_CHECK(analysis != nullptr);
  std::call_once(analysis_once_, [this, &analysis] {
    analysis_ = std::move(analysis);
    analyzed_.store(true, std::memory_order_release);
  });
}

const LevelSets& Solver::Levels() const { return analysis().levels; }

const MatrixStats& Solver::Stats() const { return analysis().stats; }

Expected<SolveResult> Solver::Solve(Algorithm algorithm,
                                    std::span<const Val> b) const {
  SolveResult result;
  if (IsDeviceAlgorithm(algorithm)) {
    auto device = kernels::SolveOnDevice(ToDeviceAlgorithm(algorithm), lower_,
                                         b, options_.device,
                                         options_.kernel_options);
    if (!device.ok()) return device.status();
    result.x = std::move(device->x);
    result.solve_ms = device->exec_ms;
    result.preprocessing_ms = device->preprocessing_ms;
    result.gflops = device->gflops;
    result.bandwidth_gbs = device->bandwidth_gbs;
    result.device_stats = device->stats;
    return result;
  }

  result.x.assign(static_cast<std::size_t>(lower_.rows()), 0.0);
  Timer timer;
  Status status;
  switch (algorithm) {
    case Algorithm::kSerialCpu:
      status = host::SolveSerial(lower_, b, result.x);
      break;
    case Algorithm::kLevelSetCpu: {
      const LevelSets& levels = Levels();  // cached => not timed as solve
      host::LevelSetCpuOptions cpu;
      cpu.num_threads = options_.host_threads;
      timer.Reset();
      status = host::SolveLevelSetCpu(lower_, b, result.x, &levels, cpu);
      break;
    }
    case Algorithm::kSyncFreeCpu: {
      host::SyncFreeCpuOptions cpu;
      cpu.num_threads = options_.host_threads;
      timer.Reset();
      status = host::SolveSyncFreeCpu(lower_, b, result.x, cpu);
      break;
    }
    default:
      return InternalError("unhandled host algorithm");
  }
  if (!status.ok()) return status;
  result.solve_ms = timer.ElapsedMs();
  const double seconds = result.solve_ms / 1e3;
  if (seconds > 0.0) {
    result.gflops = 2.0 * static_cast<double>(lower_.nnz()) / seconds / 1e9;
  }
  return result;
}

Algorithm Solver::Recommend() const { return analysis().recommended; }

double Solver::CostHintMs() const {
  const MatrixStats& s = analysis().stats;
  const double rows = static_cast<double>(s.rows);
  const double nnz = static_cast<double>(s.nnz);
  const double levels = static_cast<double>(std::max<Idx>(Idx{1}, s.num_levels));
  // Interpreter cost scales with value traffic (nnz dominates the per-row
  // loop, rows the spin/publish overhead); deep level structures add a
  // serialization term that high Eq.-1 granularity lets the device hide.
  const double serialization =
      levels / (1.0 + std::max(0.0, s.parallel_granularity));
  return 1e-4 * (rows + 4.0 * nnz) * (1.0 + 0.05 * serialization);
}

Expected<SolveResult> SolveUpperSystem(const Csr& upper,
                                       std::span<const Val> b,
                                       Algorithm algorithm,
                                       const SolverOptions& options) {
  if (!IsUpperTriangularWithDiagonal(upper)) {
    return InvalidArgument(
        "SolveUpperSystem needs an upper-triangular matrix with diagonal");
  }
  const Solver solver(ReverseSystem(upper), options);
  std::vector<Val> b_reversed(b.size());
  ReverseVector(b, b_reversed);
  auto result = solver.Solve(algorithm, b_reversed);
  if (!result.ok()) return result.status();
  std::vector<Val> x(result->x.size());
  ReverseVector(result->x, x);
  result->x = std::move(x);
  return result;
}

}  // namespace capellini

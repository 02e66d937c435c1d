// On-device level-set analysis — preprocessing as a measurable kernel.
//
// The host `ComputeLevelSets` is paid in full on every cold registration;
// this port makes the same analysis's cost visible in simulated cycles.
// Two kernels, after Liu et al.'s Benchmark_SpTRSM analyser:
//
//   1. in-degree build: one thread per nonzero atomicAdds into its row's
//      counter through the CSC row_idx array (counts[i] ends up as row i's
//      nnz; strictly-lower in-degree is counts[i] - 1);
//   2. level propagation: one thread per row drains its dependencies in CSR
//      order with the Writing-First structure (publish level + flag, then
//      exit; the only busy-wait is the failed-pass backedge), terminating
//      once counts[i] - 1 dependencies have been drained. Deadlock-free for
//      intra-warp dependencies by the same construction as Algorithm 5.
//
// The level fixpoint is unique, so the read-back level_of — and the
// LevelSets assembled from it via BuildLevelSetsFromLevelOf — are
// bit-identical to host ComputeLevelSets (bench_analysis gates this fatally
// on the whole gen corpus).
#pragma once

#include "graph/levels.h"
#include "matrix/csr.h"
#include "sim/config.h"
#include "sim/counters.h"
#include "sim/kernel.h"
#include "support/status.h"

namespace capellini::kernels {

struct DeviceAnalysisResult {
  /// Bit-identical to ComputeLevelSets(lower).
  LevelSets levels;
  /// Both launches (in-degree + propagation) combined.
  sim::LaunchStats stats;
  /// Simulated device time for both kernels.
  double exec_ms = 0.0;
  /// Host wall-clock milliseconds spent around the launches (CSC structure
  /// build for the in-degree kernel, counting-sort assembly of the
  /// read-back levels).
  double host_ms = 0.0;
};

/// Runs the two-kernel analyser on a simulated `config` device.
Expected<DeviceAnalysisResult> AnalyzeOnDevice(const Csr& lower,
                                               const sim::DeviceConfig& config);

// Kernel factories (cached by AnalyzeOnDevice; exposed for kernel tests).
// In-degree: kParamM = nnz, kParamColIdx = CSC row_idx,
// kParamGetValue = i32 counters (zero-initialized).
sim::Kernel BuildInDegreeKernel();
// Propagation: kParamM = rows, kParamRowPtr/kParamColIdx = CSR structure,
// kParamGetValue = i32 published flags (zeroed), kParamAux0 = counters from
// the in-degree kernel, kParamAux1 = i32 level output.
sim::Kernel BuildLevelPropagateKernel();

}  // namespace capellini::kernels

// Shared conventions for the SpTRSV device kernels.
//
// All kernels receive their arguments through the same parameter slots so the
// launcher can set up any of them uniformly. Addresses are device byte
// offsets; index arrays are int32, value arrays are f64 (double precision, as
// evaluated in the paper).
#pragma once

#include <algorithm>

#include "sim/config.h"
#include "sim/kernel.h"

namespace capellini::kernels {

/// Threads per block of every launch: 256, clamped to what one SM can host
/// (the tiny test device's SMs hold fewer warps than that).
inline int ThreadsPerBlock(const sim::DeviceConfig& config) {
  constexpr int kThreadsPerBlock = 256;
  return std::min(kThreadsPerBlock, config.max_warps_per_sm * 32);
}

/// Parameter-slot convention (values are device addresses unless noted).
enum Param : int {
  kParamM = 0,         // number of rows (scalar)
  kParamRowPtr = 1,    // CSR row_ptr (or CSC col_ptr for the CSC kernel)
  kParamColIdx = 2,    // CSR col_idx (or CSC row_idx)
  kParamVal = 3,       // nonzero values
  kParamB = 4,         // right-hand side
  kParamX = 5,         // solution vector
  kParamGetValue = 6,  // i32 flags: component solved (or dep counters)
  kParamAux0 = 7,      // kernel-specific
  kParamAux1 = 8,      // kernel-specific
  kParamAux2 = 9,      // kernel-specific
  kNumParams = 10,
};

// Kernel factories. Each returns a freshly built program; the launcher caches
// them. See the .cpp files for line-by-line commentary against the paper's
// pseudocode (Algorithms 1-5).
sim::Kernel BuildSerialRowKernel();            // Algorithm 1 (one thread)
sim::Kernel BuildLevelSetKernel();             // Algorithm 2 (per-level launch)
sim::Kernel BuildSyncFreeWarpCsrKernel();      // Algorithm 3 (warp per row, CSR)
sim::Kernel BuildSyncFreeCscKernel();          // Liu et al. CSC formulation
sim::Kernel BuildCapelliniNaiveKernel();       // deliberately deadlocking
sim::Kernel BuildCapelliniTwoPhaseKernel();    // Algorithm 4
sim::Kernel BuildCapelliniWritingFirstKernel();// Algorithm 5
sim::Kernel BuildCusparseProxyKernel();        // black-box baseline proxy
sim::Kernel BuildHybridKernel();               // §4.4 warp/thread hybrid

// Partition-range variants for the multi-device fleet (src/fleet): the launch
// covers global rows [kParamAux0, kParamM) with row_end - row_begin threads;
// full global arrays are uploaded per device and remote dependencies arrive
// as delayed external stores (sim::ExternalStore). Bit-identical values to
// the whole-matrix kernels by construction (same CSR drain order).
sim::Kernel BuildCapelliniWritingFirstRangeKernel();
sim::Kernel BuildCapelliniTwoPhaseRangeKernel();

// Multiple right-hand sides (SpTRSM, Liu et al. CCPE'17 direction); k in
// [1, 6]. B and X are column-major n x k.
sim::Kernel BuildCapelliniWritingFirstMrhsKernel(int k);
sim::Kernel BuildSyncFreeWarpMrhsKernel(int k);

}  // namespace capellini::kernels

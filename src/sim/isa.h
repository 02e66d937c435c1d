// Instruction set of the simulated SIMT device.
//
// A deliberately small register machine: 64-bit integer registers (addresses,
// indices, predicates), double registers (the solve arithmetic), global-memory
// accesses with 4- and 8-byte widths, warp shuffles, and predicated branches
// that carry an EXPLICIT reconvergence PC. All kernels in this repository are
// authored through KernelBuilder, so immediate-post-dominator analysis is
// unnecessary — the author states the reconvergence point (see DESIGN.md §2).
#pragma once

#include <cstdint>

namespace capellini::sim {

inline constexpr int kNumIntRegs = 24;
inline constexpr int kNumFltRegs = 12;

enum class Op : std::uint8_t {
  kNop,
  // Integer ALU.
  kMovI,   // R[a] = imm
  kMov,    // R[a] = R[b]
  kAdd,    // R[a] = R[b] + R[c]
  kAddI,   // R[a] = R[b] + imm
  kSub,    // R[a] = R[b] - R[c]
  kMul,    // R[a] = R[b] * R[c]
  kMulI,   // R[a] = R[b] * imm
  kAndI,   // R[a] = R[b] & imm
  kShlI,   // R[a] = R[b] << imm
  kShrI,   // R[a] = R[b] >> imm (arithmetic)
  // Comparisons produce 0/1.
  kSetLt,   // R[a] = R[b] < R[c]
  kSetLe,   // R[a] = R[b] <= R[c]
  kSetEq,   // R[a] = R[b] == R[c]
  kSetNe,   // R[a] = R[b] != R[c]
  kSetGe,   // R[a] = R[b] >= R[c]
  kSetGt,   // R[a] = R[b] > R[c]
  kSetLtI,  // R[a] = R[b] < imm
  kSetGeI,  // R[a] = R[b] >= imm
  kSetEqI,  // R[a] = R[b] == imm
  kSetNeI,  // R[a] = R[b] != imm
  // Specials & params.
  kS2R,      // R[a] = special(b)  (see Special)
  kLdParam,  // R[a] = params[imm]
  // Global memory (byte addresses in integer registers).
  kLd4,        // R[a] = sign-extended *(i32*)mem[R[b]]
  kLd8I,       // R[a] = *(i64*)mem[R[b]]
  kLd8F,       // F[a] = *(f64*)mem[R[b]]
  kSt4,        // *(i32*)mem[R[a]] = (i32)R[b]
  kSt8I,       // *(i64*)mem[R[a]] = R[b]
  kSt8F,       // *(f64*)mem[R[a]] = F[b]
  kAtomAddF8,  // F[a] = old *(f64*)mem[R[b]]; *(f64*)mem[R[b]] += F[c]
  kAtomAddI4,  // R[a] = old *(i32*)mem[R[b]]; *(i32*)mem[R[b]] += (i32)R[c]
  // Floating point (double).
  kFMovI,      // F[a] = fimm
  kFMov,       // F[a] = F[b]
  kFAdd,       // F[a] = F[b] + F[c]
  kFSub,       // F[a] = F[b] - F[c]
  kFMul,       // F[a] = F[b] * F[c]
  kFDiv,       // F[a] = F[b] / F[c]
  kFFma,       // F[a] = F[a] + F[b] * F[c]
  kShflDownF,  // F[a] = F[b] of lane (lane + imm), own value if out of range
  // Control flow.
  kBrnz,   // if R[a] != 0 goto imm; reconvergence at imm2
  kBrz,    // if R[a] == 0 goto imm; reconvergence at imm2
  kJmp,    // goto imm (uniform within the active mask)
  kFence,  // __threadfence(); ordering is already SC in the simulator, kept
           // for faithful instruction counts
  kExit,   // lane terminates
};

/// Special values readable via kS2R.
enum class Special : std::uint8_t {
  kGlobalTid,      // blockIdx * blockDim + threadIdx
  kLane,           // threadIdx % warp_size
  kWarpId,         // global warp index
  kBlockId,        // blockIdx
  kThreadInBlock,  // threadIdx
  kGridThreads,    // total launched threads
};

/// One decoded instruction. `a`, `b`, `c` are register indices (int or float
/// file depending on the op); imm/imm2/fimm per the op comments above.
struct Instr {
  Op op = Op::kNop;
  std::int16_t a = 0;
  std::int16_t b = 0;
  std::int16_t c = 0;
  std::int64_t imm = 0;
  std::int64_t imm2 = 0;
  double fimm = 0.0;
};

}  // namespace capellini::sim

// Kernel container and the builder/assembler used to author device kernels.
//
// KernelBuilder provides named registers and labels so that the SpTRSV
// kernels in src/kernels read like the paper's pseudocode. Build() patches
// label references and validates the program.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/isa.h"
#include "support/status.h"

namespace capellini::sim {

/// An assembled device program.
struct Kernel {
  std::string name;
  std::vector<Instr> code;
  int num_params = 0;

  /// Author-declared busy-wait regions, as half-open PC ranges [begin, end).
  /// The tracing layer attributes instructions issued inside them (and the
  /// stalls of their poll loads) to the busy-wait-spin bucket; the first PC
  /// of a region marks one poll iteration.
  std::vector<std::pair<std::int32_t, std::int32_t>> spin_regions;
  /// PCs of stores that make a solution component visible to other threads
  /// (the "write first" publish). Drives the solve-progress timeline.
  std::vector<std::int32_t> publish_pcs;

  /// Structural validation: register indices in range, branch targets and
  /// reconvergence PCs inside the program, program ends in control flow.
  Status Validate() const;
};

/// Branch/jump target. Obtain with KernelBuilder::NewLabel, place with Bind.
struct Label {
  int id = -1;
};

class KernelBuilder {
 public:
  explicit KernelBuilder(std::string name, int num_params);

  /// Named integer register (allocated on first use).
  int R(const std::string& name);
  /// Named double register (allocated on first use).
  int F(const std::string& name);

  Label NewLabel();
  /// Binds `label` to the next emitted instruction.
  void Bind(Label label);

  // --- Integer ALU ---
  void MovI(int rd, std::int64_t imm);
  void Mov(int rd, int ra);
  void Add(int rd, int ra, int rb);
  void AddI(int rd, int ra, std::int64_t imm);
  void Sub(int rd, int ra, int rb);
  void Mul(int rd, int ra, int rb);
  void MulI(int rd, int ra, std::int64_t imm);
  void AndI(int rd, int ra, std::int64_t imm);
  void ShlI(int rd, int ra, std::int64_t imm);
  void ShrI(int rd, int ra, std::int64_t imm);

  // --- Comparisons (0/1 result) ---
  void SetLt(int rd, int ra, int rb);
  void SetLe(int rd, int ra, int rb);
  void SetEq(int rd, int ra, int rb);
  void SetNe(int rd, int ra, int rb);
  void SetGe(int rd, int ra, int rb);
  void SetGt(int rd, int ra, int rb);
  void SetLtI(int rd, int ra, std::int64_t imm);
  void SetGeI(int rd, int ra, std::int64_t imm);
  void SetEqI(int rd, int ra, std::int64_t imm);
  void SetNeI(int rd, int ra, std::int64_t imm);

  // --- Specials & params ---
  void S2R(int rd, Special special);
  void LdParam(int rd, int param_index);

  // --- Memory ---
  void Ld4(int rd, int raddr);
  void Ld8I(int rd, int raddr);
  void Ld8F(int fd, int raddr);
  void St4(int raddr, int rs);
  void St8I(int raddr, int rs);
  void St8F(int raddr, int fs);
  void AtomAddF8(int fd_old, int raddr, int fs);
  void AtomAddI4(int rd_old, int raddr, int rs);

  // --- Floating point ---
  void FMovI(int fd, double imm);
  void FMov(int fd, int fa);
  void FAdd(int fd, int fa, int fb);
  void FSub(int fd, int fa, int fb);
  void FMul(int fd, int fa, int fb);
  void FDiv(int fd, int fa, int fb);
  void FFma(int fd, int fa, int fb);
  void ShflDownF(int fd, int fa, int delta);

  // --- Control flow ---
  /// Branch if R[pred] != 0 to `target`; divergent lanes reconverge at
  /// `reconv`.
  void Brnz(int pred, Label target, Label reconv);
  /// Branch if R[pred] == 0 to `target`; reconvergence at `reconv`.
  void Brz(int pred, Label target, Label reconv);
  void Jmp(Label target);
  void Fence();
  void Exit();

  /// Convenience: if R[pred] is zero, the lane exits (guard clause used to
  /// round thread counts up to full warps).
  void ExitIfZero(int pred);

  // --- Trace annotations (no code emitted; metadata for src/trace) ---
  /// Marks the instructions emitted between BeginSpin and EndSpin as a
  /// busy-wait region. Regions must not nest.
  void BeginSpin();
  void EndSpin();
  /// Marks the NEXT emitted instruction (a store) as the publish of a
  /// solution component.
  void MarkPublish();

  /// Number of instructions emitted so far (== PC of the next instruction).
  int CurrentPc() const { return static_cast<int>(code_.size()); }

  /// Resolves labels and validates. Aborts on malformed programs (kernels are
  /// compiled into the binary; a malformed one is a programming error).
  Kernel Build();

 private:
  struct Patch {
    std::size_t instr;
    bool is_imm2;  // patch imm2 (reconvergence) instead of imm (target)
    int label;
  };

  void EmitLabelRef(std::size_t instr_index, bool is_imm2, Label label);

  std::string name_;
  int num_params_;
  std::vector<Instr> code_;
  std::map<std::string, int> int_regs_;
  std::map<std::string, int> flt_regs_;
  std::vector<std::int64_t> label_pc_;  // -1 while unbound
  std::vector<Patch> patches_;
  std::vector<std::pair<std::int32_t, std::int32_t>> spin_regions_;
  std::vector<std::int32_t> publish_pcs_;
  int open_spin_begin_ = -1;
  bool built_ = false;
};

}  // namespace capellini::sim

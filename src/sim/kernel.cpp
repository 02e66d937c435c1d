#include "sim/kernel.h"

namespace capellini::sim {
namespace {

bool IsBranch(Op op) { return op == Op::kBrnz || op == Op::kBrz; }

bool ValidIntReg(int r) { return r >= 0 && r < kNumIntRegs; }
bool ValidFltReg(int r) { return r >= 0 && r < kNumFltRegs; }

}  // namespace

Status Kernel::Validate() const {
  if (code.empty()) return InvalidArgument("empty kernel " + name);
  const std::int64_t size = static_cast<std::int64_t>(code.size());
  for (std::int64_t pc = 0; pc < size; ++pc) {
    const Instr& instr = code[static_cast<std::size_t>(pc)];
    if (IsBranch(instr.op) || instr.op == Op::kJmp) {
      if (instr.imm < 0 || instr.imm >= size) {
        return InvalidArgument("branch target out of range in " + name);
      }
      if (IsBranch(instr.op) && (instr.imm2 < 0 || instr.imm2 >= size)) {
        return InvalidArgument("reconvergence PC out of range in " + name);
      }
    }
    if (instr.op == Op::kLdParam &&
        (instr.imm < 0 || instr.imm >= num_params)) {
      return InvalidArgument("param index out of range in " + name);
    }
  }
  for (const auto& [begin, end] : spin_regions) {
    if (begin < 0 || end > size || begin >= end) {
      return InvalidArgument("spin region out of range in " + name);
    }
  }
  for (const std::int32_t pc : publish_pcs) {
    if (pc < 0 || pc >= size) {
      return InvalidArgument("publish PC out of range in " + name);
    }
    const Op op = code[static_cast<std::size_t>(pc)].op;
    if (op != Op::kSt4 && op != Op::kSt8I && op != Op::kSt8F) {
      return InvalidArgument("publish PC is not a store in " + name);
    }
  }
  // Falling off the end of the program is a bug; the last instruction must
  // redirect control or terminate every lane.
  const Op last = code.back().op;
  if (last != Op::kExit && last != Op::kJmp) {
    return InvalidArgument("kernel " + name + " does not end in exit/jmp");
  }
  return Status::Ok();
}

KernelBuilder::KernelBuilder(std::string name, int num_params)
    : name_(std::move(name)), num_params_(num_params) {
  CAPELLINI_CHECK(num_params_ >= 0);
}

int KernelBuilder::R(const std::string& name) {
  auto it = int_regs_.find(name);
  if (it != int_regs_.end()) return it->second;
  const int idx = static_cast<int>(int_regs_.size());
  CAPELLINI_CHECK_MSG(ValidIntReg(idx), "out of integer registers");
  int_regs_[name] = idx;
  return idx;
}

int KernelBuilder::F(const std::string& name) {
  auto it = flt_regs_.find(name);
  if (it != flt_regs_.end()) return it->second;
  const int idx = static_cast<int>(flt_regs_.size());
  CAPELLINI_CHECK_MSG(ValidFltReg(idx), "out of float registers");
  flt_regs_[name] = idx;
  return idx;
}

Label KernelBuilder::NewLabel() {
  label_pc_.push_back(-1);
  return Label{static_cast<int>(label_pc_.size()) - 1};
}

void KernelBuilder::Bind(Label label) {
  CAPELLINI_CHECK(label.id >= 0 &&
                  label.id < static_cast<int>(label_pc_.size()));
  CAPELLINI_CHECK_MSG(label_pc_[static_cast<std::size_t>(label.id)] == -1,
                      "label bound twice");
  label_pc_[static_cast<std::size_t>(label.id)] = CurrentPc();
}

void KernelBuilder::EmitLabelRef(std::size_t instr_index, bool is_imm2,
                                 Label label) {
  CAPELLINI_CHECK(label.id >= 0 &&
                  label.id < static_cast<int>(label_pc_.size()));
  patches_.push_back(Patch{instr_index, is_imm2, label.id});
}

// Helper macro to keep the emitters compact and uniform.
#define EMIT(op_, a_, b_, c_, imm_, fimm_)                              \
  code_.push_back(Instr{Op::op_, static_cast<std::int16_t>(a_),        \
                        static_cast<std::int16_t>(b_),                 \
                        static_cast<std::int16_t>(c_), (imm_), 0, (fimm_)})

void KernelBuilder::MovI(int rd, std::int64_t imm) { EMIT(kMovI, rd, 0, 0, imm, 0.0); }
void KernelBuilder::Mov(int rd, int ra) { EMIT(kMov, rd, ra, 0, 0, 0.0); }
void KernelBuilder::Add(int rd, int ra, int rb) { EMIT(kAdd, rd, ra, rb, 0, 0.0); }
void KernelBuilder::AddI(int rd, int ra, std::int64_t imm) { EMIT(kAddI, rd, ra, 0, imm, 0.0); }
void KernelBuilder::Sub(int rd, int ra, int rb) { EMIT(kSub, rd, ra, rb, 0, 0.0); }
void KernelBuilder::Mul(int rd, int ra, int rb) { EMIT(kMul, rd, ra, rb, 0, 0.0); }
void KernelBuilder::MulI(int rd, int ra, std::int64_t imm) { EMIT(kMulI, rd, ra, 0, imm, 0.0); }
void KernelBuilder::AndI(int rd, int ra, std::int64_t imm) { EMIT(kAndI, rd, ra, 0, imm, 0.0); }
void KernelBuilder::ShlI(int rd, int ra, std::int64_t imm) { EMIT(kShlI, rd, ra, 0, imm, 0.0); }
void KernelBuilder::ShrI(int rd, int ra, std::int64_t imm) { EMIT(kShrI, rd, ra, 0, imm, 0.0); }

void KernelBuilder::SetLt(int rd, int ra, int rb) { EMIT(kSetLt, rd, ra, rb, 0, 0.0); }
void KernelBuilder::SetLe(int rd, int ra, int rb) { EMIT(kSetLe, rd, ra, rb, 0, 0.0); }
void KernelBuilder::SetEq(int rd, int ra, int rb) { EMIT(kSetEq, rd, ra, rb, 0, 0.0); }
void KernelBuilder::SetNe(int rd, int ra, int rb) { EMIT(kSetNe, rd, ra, rb, 0, 0.0); }
void KernelBuilder::SetGe(int rd, int ra, int rb) { EMIT(kSetGe, rd, ra, rb, 0, 0.0); }
void KernelBuilder::SetGt(int rd, int ra, int rb) { EMIT(kSetGt, rd, ra, rb, 0, 0.0); }
void KernelBuilder::SetLtI(int rd, int ra, std::int64_t imm) { EMIT(kSetLtI, rd, ra, 0, imm, 0.0); }
void KernelBuilder::SetGeI(int rd, int ra, std::int64_t imm) { EMIT(kSetGeI, rd, ra, 0, imm, 0.0); }
void KernelBuilder::SetEqI(int rd, int ra, std::int64_t imm) { EMIT(kSetEqI, rd, ra, 0, imm, 0.0); }
void KernelBuilder::SetNeI(int rd, int ra, std::int64_t imm) { EMIT(kSetNeI, rd, ra, 0, imm, 0.0); }

void KernelBuilder::S2R(int rd, Special special) {
  EMIT(kS2R, rd, static_cast<int>(special), 0, 0, 0.0);
}
void KernelBuilder::LdParam(int rd, int param_index) {
  CAPELLINI_CHECK(param_index >= 0 && param_index < num_params_);
  EMIT(kLdParam, rd, 0, 0, param_index, 0.0);
}

void KernelBuilder::Ld4(int rd, int raddr) { EMIT(kLd4, rd, raddr, 0, 0, 0.0); }
void KernelBuilder::Ld8I(int rd, int raddr) { EMIT(kLd8I, rd, raddr, 0, 0, 0.0); }
void KernelBuilder::Ld8F(int fd, int raddr) { EMIT(kLd8F, fd, raddr, 0, 0, 0.0); }
void KernelBuilder::St4(int raddr, int rs) { EMIT(kSt4, raddr, rs, 0, 0, 0.0); }
void KernelBuilder::St8I(int raddr, int rs) { EMIT(kSt8I, raddr, rs, 0, 0, 0.0); }
void KernelBuilder::St8F(int raddr, int fs) { EMIT(kSt8F, raddr, fs, 0, 0, 0.0); }
void KernelBuilder::AtomAddF8(int fd_old, int raddr, int fs) {
  EMIT(kAtomAddF8, fd_old, raddr, fs, 0, 0.0);
}
void KernelBuilder::AtomAddI4(int rd_old, int raddr, int rs) {
  EMIT(kAtomAddI4, rd_old, raddr, rs, 0, 0.0);
}

void KernelBuilder::FMovI(int fd, double imm) { EMIT(kFMovI, fd, 0, 0, 0, imm); }
void KernelBuilder::FMov(int fd, int fa) { EMIT(kFMov, fd, fa, 0, 0, 0.0); }
void KernelBuilder::FAdd(int fd, int fa, int fb) { EMIT(kFAdd, fd, fa, fb, 0, 0.0); }
void KernelBuilder::FSub(int fd, int fa, int fb) { EMIT(kFSub, fd, fa, fb, 0, 0.0); }
void KernelBuilder::FMul(int fd, int fa, int fb) { EMIT(kFMul, fd, fa, fb, 0, 0.0); }
void KernelBuilder::FDiv(int fd, int fa, int fb) { EMIT(kFDiv, fd, fa, fb, 0, 0.0); }
void KernelBuilder::FFma(int fd, int fa, int fb) { EMIT(kFFma, fd, fa, fb, 0, 0.0); }
void KernelBuilder::ShflDownF(int fd, int fa, int delta) {
  EMIT(kShflDownF, fd, fa, 0, delta, 0.0);
}

void KernelBuilder::Brnz(int pred, Label target, Label reconv) {
  EMIT(kBrnz, pred, 0, 0, 0, 0.0);
  EmitLabelRef(code_.size() - 1, /*is_imm2=*/false, target);
  EmitLabelRef(code_.size() - 1, /*is_imm2=*/true, reconv);
}

void KernelBuilder::Brz(int pred, Label target, Label reconv) {
  EMIT(kBrz, pred, 0, 0, 0, 0.0);
  EmitLabelRef(code_.size() - 1, /*is_imm2=*/false, target);
  EmitLabelRef(code_.size() - 1, /*is_imm2=*/true, reconv);
}

void KernelBuilder::Jmp(Label target) {
  EMIT(kJmp, 0, 0, 0, 0, 0.0);
  EmitLabelRef(code_.size() - 1, /*is_imm2=*/false, target);
}

void KernelBuilder::Fence() { EMIT(kFence, 0, 0, 0, 0, 0.0); }
void KernelBuilder::Exit() { EMIT(kExit, 0, 0, 0, 0, 0.0); }

void KernelBuilder::BeginSpin() {
  CAPELLINI_CHECK_MSG(open_spin_begin_ < 0, "spin regions must not nest");
  open_spin_begin_ = CurrentPc();
}

void KernelBuilder::EndSpin() {
  CAPELLINI_CHECK_MSG(open_spin_begin_ >= 0, "EndSpin without BeginSpin");
  CAPELLINI_CHECK_MSG(CurrentPc() > open_spin_begin_, "empty spin region");
  spin_regions_.emplace_back(open_spin_begin_, CurrentPc());
  open_spin_begin_ = -1;
}

void KernelBuilder::MarkPublish() { publish_pcs_.push_back(CurrentPc()); }

void KernelBuilder::ExitIfZero(int pred) {
  // Guard-exit idiom: the reconvergence point of the branch is the
  // fall-through instruction; lanes that take the branch exit immediately,
  // after which the surviving mask resumes at the fall-through.
  Label lexit = NewLabel();
  Label lcont = NewLabel();
  Brz(pred, lexit, lcont);
  Jmp(lcont);  // fall-through lanes skip the exit island
  Bind(lexit);
  Exit();
  Bind(lcont);
}

#undef EMIT

Kernel KernelBuilder::Build() {
  CAPELLINI_CHECK_MSG(!built_, "Build() called twice");
  built_ = true;
  for (const Patch& patch : patches_) {
    const std::int64_t pc = label_pc_[static_cast<std::size_t>(patch.label)];
    CAPELLINI_CHECK_MSG(pc >= 0, "unbound label in kernel " + name_);
    Instr& instr = code_[patch.instr];
    if (patch.is_imm2) {
      instr.imm2 = pc;
    } else {
      instr.imm = pc;
    }
  }
  CAPELLINI_CHECK_MSG(open_spin_begin_ < 0, "unclosed spin region");
  Kernel kernel;
  kernel.name = name_;
  kernel.code = std::move(code_);
  kernel.num_params = num_params_;
  kernel.spin_regions = std::move(spin_regions_);
  kernel.publish_pcs = std::move(publish_pcs_);
  const Status status = kernel.Validate();
  CAPELLINI_CHECK_MSG(status.ok(), status.ToString());
  return kernel;
}

}  // namespace capellini::sim

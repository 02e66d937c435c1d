#include "sim/disasm.h"

#include <cstdio>
#include <sstream>

namespace capellini::sim {

const char* OpName(Op op) {
  switch (op) {
    case Op::kNop: return "nop";
    case Op::kMovI: return "movi";
    case Op::kMov: return "mov";
    case Op::kAdd: return "add";
    case Op::kAddI: return "addi";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kMulI: return "muli";
    case Op::kAndI: return "andi";
    case Op::kShlI: return "shli";
    case Op::kShrI: return "shri";
    case Op::kSetLt: return "setlt";
    case Op::kSetLe: return "setle";
    case Op::kSetEq: return "seteq";
    case Op::kSetNe: return "setne";
    case Op::kSetGe: return "setge";
    case Op::kSetGt: return "setgt";
    case Op::kSetLtI: return "setlti";
    case Op::kSetGeI: return "setgei";
    case Op::kSetEqI: return "seteqi";
    case Op::kSetNeI: return "setnei";
    case Op::kS2R: return "s2r";
    case Op::kLdParam: return "ldparam";
    case Op::kLd4: return "ld4";
    case Op::kLd8I: return "ld8i";
    case Op::kLd8F: return "ld8f";
    case Op::kSt4: return "st4";
    case Op::kSt8I: return "st8i";
    case Op::kSt8F: return "st8f";
    case Op::kAtomAddF8: return "atomaddf8";
    case Op::kAtomAddI4: return "atomaddi4";
    case Op::kFMovI: return "fmovi";
    case Op::kFMov: return "fmov";
    case Op::kFAdd: return "fadd";
    case Op::kFSub: return "fsub";
    case Op::kFMul: return "fmul";
    case Op::kFDiv: return "fdiv";
    case Op::kFFma: return "ffma";
    case Op::kShflDownF: return "shfl.down";
    case Op::kBrnz: return "brnz";
    case Op::kBrz: return "brz";
    case Op::kJmp: return "jmp";
    case Op::kFence: return "fence";
    case Op::kExit: return "exit";
  }
  return "???";
}

namespace {

const char* SpecialName(Special special) {
  switch (special) {
    case Special::kGlobalTid: return "tid";
    case Special::kLane: return "lane";
    case Special::kWarpId: return "warpid";
    case Special::kBlockId: return "blockid";
    case Special::kThreadInBlock: return "tid.block";
    case Special::kGridThreads: return "gridsize";
  }
  return "???";
}

}  // namespace

std::string FormatInstr(const Instr& instr) {
  char buf[128];
  switch (instr.op) {
    case Op::kNop:
    case Op::kFence:
    case Op::kExit:
      return OpName(instr.op);
    case Op::kMovI:
      std::snprintf(buf, sizeof buf, "movi r%d, %lld", instr.a,
                    static_cast<long long>(instr.imm));
      break;
    case Op::kMov:
      std::snprintf(buf, sizeof buf, "mov r%d, r%d", instr.a, instr.b);
      break;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kSetLt:
    case Op::kSetLe:
    case Op::kSetEq:
    case Op::kSetNe:
    case Op::kSetGe:
    case Op::kSetGt:
      std::snprintf(buf, sizeof buf, "%s r%d, r%d, r%d", OpName(instr.op),
                    instr.a, instr.b, instr.c);
      break;
    case Op::kAddI:
    case Op::kMulI:
    case Op::kAndI:
    case Op::kShlI:
    case Op::kShrI:
    case Op::kSetLtI:
    case Op::kSetGeI:
    case Op::kSetEqI:
    case Op::kSetNeI:
      std::snprintf(buf, sizeof buf, "%s r%d, r%d, %lld", OpName(instr.op),
                    instr.a, instr.b, static_cast<long long>(instr.imm));
      break;
    case Op::kS2R:
      std::snprintf(buf, sizeof buf, "s2r r%d, %s", instr.a,
                    SpecialName(static_cast<Special>(instr.b)));
      break;
    case Op::kLdParam:
      std::snprintf(buf, sizeof buf, "ldparam r%d, [%lld]", instr.a,
                    static_cast<long long>(instr.imm));
      break;
    case Op::kLd4:
    case Op::kLd8I:
      std::snprintf(buf, sizeof buf, "%s r%d, [r%d]", OpName(instr.op),
                    instr.a, instr.b);
      break;
    case Op::kLd8F:
      std::snprintf(buf, sizeof buf, "ld8f f%d, [r%d]", instr.a, instr.b);
      break;
    case Op::kSt4:
    case Op::kSt8I:
      std::snprintf(buf, sizeof buf, "%s [r%d], r%d", OpName(instr.op),
                    instr.a, instr.b);
      break;
    case Op::kSt8F:
      std::snprintf(buf, sizeof buf, "st8f [r%d], f%d", instr.a, instr.b);
      break;
    case Op::kAtomAddF8:
      std::snprintf(buf, sizeof buf, "atomaddf8 f%d, [r%d], f%d", instr.a,
                    instr.b, instr.c);
      break;
    case Op::kAtomAddI4:
      std::snprintf(buf, sizeof buf, "atomaddi4 r%d, [r%d], r%d", instr.a,
                    instr.b, instr.c);
      break;
    case Op::kFMovI:
      std::snprintf(buf, sizeof buf, "fmovi f%d, %g", instr.a, instr.fimm);
      break;
    case Op::kFMov:
      std::snprintf(buf, sizeof buf, "fmov f%d, f%d", instr.a, instr.b);
      break;
    case Op::kFAdd:
    case Op::kFSub:
    case Op::kFMul:
    case Op::kFDiv:
      std::snprintf(buf, sizeof buf, "%s f%d, f%d, f%d", OpName(instr.op),
                    instr.a, instr.b, instr.c);
      break;
    case Op::kFFma:
      std::snprintf(buf, sizeof buf, "ffma f%d, f%d, f%d", instr.a, instr.b,
                    instr.c);
      break;
    case Op::kShflDownF:
      std::snprintf(buf, sizeof buf, "shfl.down f%d, f%d, %lld", instr.a,
                    instr.b, static_cast<long long>(instr.imm));
      break;
    case Op::kBrnz:
    case Op::kBrz:
      std::snprintf(buf, sizeof buf, "%s r%d -> %lld (reconv %lld)",
                    OpName(instr.op), instr.a,
                    static_cast<long long>(instr.imm),
                    static_cast<long long>(instr.imm2));
      break;
    case Op::kJmp:
      std::snprintf(buf, sizeof buf, "jmp %lld",
                    static_cast<long long>(instr.imm));
      break;
  }
  return buf;
}

std::string FormatKernel(const Kernel& kernel) {
  std::ostringstream out;
  out << "kernel " << kernel.name << " (" << kernel.code.size()
      << " instructions, " << kernel.num_params << " params)\n";
  for (std::size_t pc = 0; pc < kernel.code.size(); ++pc) {
    char head[24];
    std::snprintf(head, sizeof head, "%4zu: ", pc);
    out << head << FormatInstr(kernel.code[pc]) << '\n';
  }
  return out.str();
}

}  // namespace capellini::sim

// Disassembler for device kernels: mnemonics, single-instruction and whole-
// program formatting. Used by debug tooling, the deadlock diagnostics and
// tests (a kernel author can eyeball the emitted program).
#pragma once

#include <string>

#include "sim/isa.h"
#include "sim/kernel.h"

namespace capellini::sim {

/// Mnemonic of an opcode ("ffma", "brnz", ...).
const char* OpName(Op op);

/// One instruction, e.g. "brnz r3 -> 17 (reconv 21)" or "ffma f0, f1, f2".
std::string FormatInstr(const Instr& instr);

/// Whole program with PC labels.
std::string FormatKernel(const Kernel& kernel);

}  // namespace capellini::sim

// Algorithm 1 on the host CPU — the correctness reference for everything.
#pragma once

#include <span>

#include "matrix/csr.h"
#include "support/status.h"

namespace capellini::host {

/// Solves lower * x = b serially. `lower` must be lower-triangular with a
/// full diagonal; x.size() == b.size() == rows.
Status SolveSerial(const Csr& lower, std::span<const Val> b, std::span<Val> x);

/// Row-range form: solves rows [row_begin, row_end) only, reading x of every
/// earlier column as already solved (the fleet's host failover rung).
Status SolveSerial(const Csr& lower, std::span<const Val> b, std::span<Val> x,
                   Idx row_begin, Idx row_end);

/// Serial SpTRSM: solves lower * X = B for k column-major right-hand sides
/// (b.size() == x.size() == rows * k). The reference for the device MRHS
/// kernels; walks the structure once per row for all k systems.
Status SolveSerialMrhs(const Csr& lower, std::span<const Val> b,
                       std::span<Val> x, int k);

}  // namespace capellini::host

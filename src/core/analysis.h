// One-call structural analysis of a triangular system: the paper's
// indicators plus the recommended algorithm, with a human-readable report.
#pragma once

#include <cstdint>
#include <string>

#include "core/solver.h"
#include "graph/levels.h"
#include "graph/stats.h"
#include "matrix/csr.h"

namespace capellini {

struct Analysis {
  MatrixStats stats;
  LevelSets levels;
  /// Row-length distribution (informs the §4.4 hybrid threshold).
  Log2Histogram row_lengths;
  Algorithm recommended;
};

/// Computes levels, alpha/beta/delta and the Figure-6 recommendation.
Analysis Analyze(const Csr& lower, const std::string& name);

/// Assembles a full Analysis from precomputed level sets (an on-device
/// analyser run, a persisted cache entry rebuilt from level_of, ...). The
/// stats/histogram/recommendation derivation is the cheap O(nnz) tail of
/// Analyze; only the level sweep itself is skipped. Produces bit-identical
/// output to Analyze whenever `levels` matches ComputeLevelSets(lower).
Analysis AssembleAnalysis(const Csr& lower, const std::string& name,
                          LevelSets levels);

/// The same with the row-length histogram precomputed as well (a patched
/// update epoch): what is left is the O(levels) stats and recommendation.
Analysis AssembleAnalysis(const Csr& lower, const std::string& name,
                          LevelSets levels, Log2Histogram row_lengths);

/// Number of host Analyze() level sweeps since process start. Lets tests
/// assert that warm (cache-rehydrated) or on-device registration paths run
/// zero host analyses. AssembleAnalysis does not count.
std::int64_t AnalyzeCallCountForTest();

/// Multi-line summary ("rows", "nnz", "alpha", "beta", "delta", ...).
std::string FormatAnalysis(const Analysis& analysis);

}  // namespace capellini

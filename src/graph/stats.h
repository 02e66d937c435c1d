// Per-matrix structural indicators, including the paper's central
// "parallel granularity" metric (Equation 1).
#pragma once

#include <span>
#include <string>

#include "graph/levels.h"
#include "matrix/csr.h"

namespace capellini {

/// Parameters of Equation 1. The paper's defaults: common logarithm for all
/// three bases, biases b1 = b2 = 0.01.
struct GranularityParams {
  double base1 = 10.0;
  double base2 = 10.0;
  double base3 = 10.0;
  double b1 = 0.01;
  double b2 = 0.01;
};

/// parallel_granularity = log_c1( log_c2(n_level) / log_c3(nnz_row + b1) + b2 )
/// where n_level = average components per level, nnz_row = average nonzeros
/// per row. Matches the paper's Table 6 indicators (e.g. rajat29: alpha 4.89,
/// beta 14636.23 -> delta 0.78).
double ParallelGranularity(double avg_components_per_level,
                           double avg_nnz_per_row,
                           const GranularityParams& params = {});

/// Structural summary of a lower-triangular system.
struct MatrixStats {
  std::string name;
  Idx rows = 0;
  std::int64_t nnz = 0;
  /// alpha: average nonzeros per row (diagonal included, as in the paper).
  double avg_nnz_per_row = 0.0;
  Idx num_levels = 0;
  /// beta: average number of components per level = rows / num_levels.
  double avg_components_per_level = 0.0;
  /// Size of the largest level (peak available parallelism).
  Idx max_level_size = 0;
  /// delta: Equation 1.
  double parallel_granularity = 0.0;
};

/// Computes all indicators for `lower` (must be lower-triangular with
/// diagonal). Reuses precomputed level sets if supplied.
MatrixStats ComputeStats(const Csr& lower, const std::string& name,
                         const LevelSets* precomputed_levels = nullptr,
                         const GranularityParams& params = {});

/// A log2-bucketed histogram: bucket k counts values in [2^k, 2^(k+1)).
/// Used for row-length and level-size distributions — the structural detail
/// behind the hybrid kernel's threshold choice (§4.4).
struct Log2Histogram {
  /// counts[k] = number of values v with floor(log2(v)) == k (v >= 1).
  std::vector<std::int64_t> counts;
  std::int64_t total = 0;
  Idx min_value = 0;
  Idx max_value = 0;

  /// Smallest v such that at least `percentile` (0..100) of values are <= v,
  /// at bucket resolution (returns the bucket's upper bound).
  Idx Percentile(double percentile) const;

  /// Multi-line "2^k..: count (percent)" rendering.
  std::string ToString() const;
};

/// Distribution of row lengths (nnz per row, diagonal included).
Log2Histogram RowLengthHistogram(const Csr& lower);

/// RowLengthHistogram(after), patched from `before` =
/// RowLengthHistogram(before_matrix). `edited` lists, without duplicates,
/// every row whose length may differ between the two matrices; only those
/// rows move between buckets. When an edit may have vacated the shortest
/// or longest length, that extreme is looked up again: a scan that stops at
/// the first row still holding it, or one full pass when no row does.
Log2Histogram PatchRowLengthHistogram(const Log2Histogram& before,
                                      const Csr& before_matrix,
                                      const Csr& after,
                                      std::span<const Idx> edited);

/// Distribution of level sizes (components per level).
Log2Histogram LevelSizeHistogram(const LevelSets& levels);

}  // namespace capellini

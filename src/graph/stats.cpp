#include "graph/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/status.h"

namespace capellini {
namespace {

double LogBase(double x, double base) { return std::log(x) / std::log(base); }

}  // namespace

double ParallelGranularity(double avg_components_per_level,
                           double avg_nnz_per_row,
                           const GranularityParams& params) {
  CAPELLINI_CHECK(avg_components_per_level >= 1.0);
  CAPELLINI_CHECK(avg_nnz_per_row > 0.0);
  const double numerator = LogBase(avg_components_per_level, params.base2);
  const double denominator = LogBase(avg_nnz_per_row + params.b1, params.base3);
  // Guard: a matrix whose rows average ~1 nonzero has denominator ~0; the
  // ratio diverges which correctly signals extreme granularity. Clamp to a
  // large finite value so downstream binning stays well-defined.
  double ratio;
  if (denominator <= 1e-12) {
    ratio = 1e9;
  } else {
    ratio = numerator / denominator;
  }
  return LogBase(ratio + params.b2, params.base1);
}

MatrixStats ComputeStats(const Csr& lower, const std::string& name,
                         const LevelSets* precomputed_levels,
                         const GranularityParams& params) {
  CAPELLINI_CHECK(lower.IsLowerTriangularWithDiagonal());
  MatrixStats stats;
  stats.name = name;
  stats.rows = lower.rows();
  stats.nnz = lower.nnz();
  stats.avg_nnz_per_row =
      stats.rows == 0 ? 0.0
                      : static_cast<double>(stats.nnz) /
                            static_cast<double>(stats.rows);

  LevelSets local;
  const LevelSets* levels = precomputed_levels;
  if (levels == nullptr) {
    local = ComputeLevelSets(lower);
    levels = &local;
  }
  stats.num_levels = levels->num_levels();
  stats.avg_components_per_level =
      stats.num_levels == 0
          ? 0.0
          : static_cast<double>(stats.rows) /
                static_cast<double>(stats.num_levels);
  stats.max_level_size = 0;
  for (Idx k = 0; k < stats.num_levels; ++k) {
    stats.max_level_size = std::max(stats.max_level_size, levels->LevelSize(k));
  }
  if (stats.rows > 0) {
    stats.parallel_granularity = ParallelGranularity(
        std::max(1.0, stats.avg_components_per_level),
        std::max(1.0, stats.avg_nnz_per_row), params);
  }
  return stats;
}

namespace {

/// The count of `value`'s bucket, with `counts` grown to reach it.
std::int64_t& BucketCount(Log2Histogram& histogram, Idx value) {
  CAPELLINI_CHECK(value >= 1);
  const auto bucket = static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint32_t>(value)) - 1);  // floor(log2)
  if (histogram.counts.size() <= bucket) {
    histogram.counts.resize(bucket + 1, 0);
  }
  return histogram.counts[bucket];
}

void AddValue(Log2Histogram& histogram, Idx value) {
  ++BucketCount(histogram, value);
  ++histogram.total;
  if (histogram.total == 1) {
    histogram.min_value = value;
    histogram.max_value = value;
  } else {
    histogram.min_value = std::min(histogram.min_value, value);
    histogram.max_value = std::max(histogram.max_value, value);
  }
}

}  // namespace

Idx Log2Histogram::Percentile(double percentile) const {
  if (total == 0) return 0;
  const double target = static_cast<double>(total) * percentile / 100.0;
  std::int64_t seen = 0;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    seen += counts[k];
    if (static_cast<double>(seen) >= target) {
      return static_cast<Idx>((Idx{1} << (k + 1)) - 1);  // bucket upper bound
    }
  }
  return max_value;
}

std::string Log2Histogram::ToString() const {
  std::ostringstream out;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] == 0) continue;
    char line[96];
    std::snprintf(line, sizeof line, "  [%6lld, %6lld]: %8lld (%5.1f%%)\n",
                  static_cast<long long>(Idx{1} << k),
                  static_cast<long long>((Idx{1} << (k + 1)) - 1),
                  static_cast<long long>(counts[k]),
                  100.0 * static_cast<double>(counts[k]) /
                      static_cast<double>(std::max<std::int64_t>(1, total)));
    out << line;
  }
  return out.str();
}

Log2Histogram RowLengthHistogram(const Csr& lower) {
  Log2Histogram histogram;
  for (Idx r = 0; r < lower.rows(); ++r) AddValue(histogram, lower.RowLen(r));
  return histogram;
}

Log2Histogram PatchRowLengthHistogram(const Log2Histogram& before,
                                      const Csr& before_matrix,
                                      const Csr& after,
                                      std::span<const Idx> edited) {
  CAPELLINI_CHECK(before_matrix.rows() == after.rows());
  Log2Histogram histogram = before;
  bool min_vacated = false;
  bool max_vacated = false;
  for (const Idx row : edited) {
    const Idx from = before_matrix.RowLen(row);
    const Idx to = after.RowLen(row);
    if (from == to) continue;
    --BucketCount(histogram, from);
    ++BucketCount(histogram, to);
    min_vacated |= from == before.min_value && to > from;
    max_vacated |= from == before.max_value && to < from;
    histogram.min_value = std::min(histogram.min_value, to);
    histogram.max_value = std::max(histogram.max_value, to);
  }

  // A row that still holds the old extreme keeps it (rows outside `edited`
  // kept their lengths, and the edited rows' new lengths are folded in
  // above); with none left, the extreme comes from a full pass.
  const Idx rows = after.rows();
  const auto holds = [&](Idx length) {
    for (Idx r = 0; r < rows; ++r) {
      if (after.RowLen(r) == length) return true;
    }
    return false;
  };
  if ((min_vacated && !holds(before.min_value)) ||
      (max_vacated && !holds(before.max_value))) {
    histogram.min_value = after.RowLen(0);
    histogram.max_value = histogram.min_value;
    for (Idx r = 1; r < rows; ++r) {
      histogram.min_value = std::min(histogram.min_value, after.RowLen(r));
      histogram.max_value = std::max(histogram.max_value, after.RowLen(r));
    }
  }
  // Counts end at the longest row's bucket, as RowLengthHistogram sizes
  // them; a shrunk longest row can leave empty buckets above its new one.
  while (!histogram.counts.empty() && histogram.counts.back() == 0) {
    histogram.counts.pop_back();
  }
  return histogram;
}

Log2Histogram LevelSizeHistogram(const LevelSets& levels) {
  Log2Histogram histogram;
  for (Idx k = 0; k < levels.num_levels(); ++k) {
    AddValue(histogram, levels.LevelSize(k));
  }
  return histogram;
}

}  // namespace capellini

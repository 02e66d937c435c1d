#include "core/analysis.h"

#include <atomic>
#include <sstream>
#include <utility>

#include "core/select.h"

namespace capellini {

namespace {
std::atomic<std::int64_t> g_analyze_calls{0};
}  // namespace

Analysis Analyze(const Csr& lower, const std::string& name) {
  g_analyze_calls.fetch_add(1, std::memory_order_relaxed);
  return AssembleAnalysis(lower, name, ComputeLevelSets(lower));
}

Analysis AssembleAnalysis(const Csr& lower, const std::string& name,
                          LevelSets levels) {
  return AssembleAnalysis(lower, name, std::move(levels),
                          RowLengthHistogram(lower));
}

Analysis AssembleAnalysis(const Csr& lower, const std::string& name,
                          LevelSets levels, Log2Histogram row_lengths) {
  Analysis analysis;
  analysis.levels = std::move(levels);
  analysis.stats = ComputeStats(lower, name, &analysis.levels);
  analysis.row_lengths = std::move(row_lengths);
  analysis.recommended = SelectAlgorithm(analysis.stats);
  return analysis;
}

std::int64_t AnalyzeCallCountForTest() {
  return g_analyze_calls.load(std::memory_order_relaxed);
}

std::string FormatAnalysis(const Analysis& analysis) {
  const MatrixStats& s = analysis.stats;
  std::ostringstream out;
  out << "matrix " << s.name << ":\n"
      << "  rows                  " << s.rows << "\n"
      << "  nnz                   " << s.nnz << "\n"
      << "  alpha (nnz/row)       " << s.avg_nnz_per_row << "\n"
      << "  levels                " << s.num_levels << "\n"
      << "  beta (rows/level)     " << s.avg_components_per_level << "\n"
      << "  max level size        " << s.max_level_size << "\n"
      << "  delta (granularity)   " << s.parallel_granularity << "\n"
      << "  recommended algorithm " << AlgorithmName(analysis.recommended)
      << "\n";
  out << "row-length distribution (log2 buckets):\n"
      << analysis.row_lengths.ToString()
      << "level-size distribution (log2 buckets):\n"
      << LevelSizeHistogram(analysis.levels).ToString();
  return out.str();
}

}  // namespace capellini

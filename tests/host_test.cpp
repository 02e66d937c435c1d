#include <gtest/gtest.h>

#include "gen/banded.h"
#include "gen/level_structured.h"
#include "gen/random_lower.h"
#include "host/levelset_cpu.h"
#include "host/serial.h"
#include "host/syncfree_cpu.h"
#include "matrix/convert.h"
#include "matrix/triangular.h"

namespace capellini::host {
namespace {

TEST(SerialTest, SolvesKnownSystem) {
  // L = [[2,0],[1,4]]; b = [2, 9] -> x = [1, 2].
  Coo coo(2, 2);
  coo.Add(0, 0, 2.0);
  coo.Add(1, 0, 1.0);
  coo.Add(1, 1, 4.0);
  const Csr lower = CooToCsr(std::move(coo));
  const std::vector<Val> b = {2.0, 9.0};
  std::vector<Val> x(2);
  ASSERT_TRUE(SolveSerial(lower, b, x).ok());
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(SerialTest, RejectsBadInputs) {
  const Csr lower = MakeDiagonal(3);
  std::vector<Val> x(3);
  const std::vector<Val> short_b = {1.0};
  EXPECT_FALSE(SolveSerial(lower, short_b, x).ok());

  Coo coo(2, 2);
  coo.Add(0, 0, 1.0);  // row 1 has no diagonal
  coo.Add(1, 0, 1.0);
  const Csr bad = CooToCsr(std::move(coo));
  const std::vector<Val> b = {1.0, 1.0};
  std::vector<Val> x2(2);
  EXPECT_FALSE(SolveSerial(bad, b, x2).ok());
}

TEST(SerialTest, RecoversReferenceSolution) {
  const Csr lower = MakeRandomLower({.rows = 3000,
                                     .avg_strict_nnz_per_row = 4.0,
                                     .window = 0,
                                     .empty_row_fraction = 0.1,
                                     .seed = 11});
  const ReferenceProblem problem = MakeReferenceProblem(lower, 12);
  std::vector<Val> x(problem.b.size());
  ASSERT_TRUE(SolveSerial(lower, problem.b, x).ok());
  EXPECT_LE(MaxRelativeError(x, problem.x_true), 1e-11);
}

TEST(SerialTest, RowRangeFormResumesAFullSolveBitForBit) {
  const Csr lower = MakeRandomLower({.rows = 500,
                                     .avg_strict_nnz_per_row = 4.0,
                                     .window = 0,
                                     .empty_row_fraction = 0.1,
                                     .seed = 5});
  const ReferenceProblem problem = MakeReferenceProblem(lower, 6);
  std::vector<Val> full(problem.b.size());
  ASSERT_TRUE(SolveSerial(lower, problem.b, full).ok());
  // Rows [0, 200) solved first, then [200, 500) against them.
  std::vector<Val> split(problem.b.size());
  ASSERT_TRUE(SolveSerial(lower, problem.b, split, 0, 200).ok());
  ASSERT_TRUE(SolveSerial(lower, problem.b, split, 200, 500).ok());
  EXPECT_EQ(split, full);
  EXPECT_FALSE(SolveSerial(lower, problem.b, split, 200, 501).ok());
  EXPECT_FALSE(SolveSerial(lower, problem.b, split, 300, 200).ok());
}

class HostParallelSolvers : public ::testing::TestWithParam<int> {};

TEST_P(HostParallelSolvers, LevelSetMatchesSerial) {
  const int threads = GetParam();
  const Csr lower = MakeLevelStructured({.num_levels = 10,
                                         .components_per_level = 300,
                                         .avg_nnz_per_row = 3.0,
                                         .size_jitter = 0.3,
                                         .interleave = false,
                                         .seed = 13});
  const ReferenceProblem problem = MakeReferenceProblem(lower, 14);
  std::vector<Val> x(problem.b.size());
  LevelSetCpuOptions options;
  options.num_threads = threads;
  options.min_parallel_level_size = 64;
  ASSERT_TRUE(SolveLevelSetCpu(lower, problem.b, x, nullptr, options).ok());
  EXPECT_LE(MaxRelativeError(x, problem.x_true), 1e-11);
}

TEST_P(HostParallelSolvers, SyncFreeMatchesSerial) {
  const int threads = GetParam();
  const Csr lower = MakeBanded({.rows = 2000, .bandwidth = 8, .fill = 0.8,
                                .force_chain = true, .seed = 15});
  const ReferenceProblem problem = MakeReferenceProblem(lower, 16);
  std::vector<Val> x(problem.b.size());
  SyncFreeCpuOptions options;
  options.num_threads = threads;
  ASSERT_TRUE(SolveSyncFreeCpu(lower, problem.b, x, options).ok());
  EXPECT_LE(MaxRelativeError(x, problem.x_true), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, HostParallelSolvers,
                         ::testing::Values(1, 2, 4));

TEST(LevelSetCpuTest, AcceptsPrecomputedLevels) {
  const Csr lower = MakeBidiagonal(500);
  const LevelSets levels = ComputeLevelSets(lower);
  const ReferenceProblem problem = MakeReferenceProblem(lower, 17);
  std::vector<Val> x(problem.b.size());
  ASSERT_TRUE(SolveLevelSetCpu(lower, problem.b, x, &levels).ok());
  EXPECT_LE(MaxRelativeError(x, problem.x_true), 1e-11);
}

TEST(SyncFreeCpuTest, ChainIsWorstCaseButCorrect) {
  // Fully serial dependency chain: every row waits on the previous one.
  const Csr lower = MakeBidiagonal(1000);
  const ReferenceProblem problem = MakeReferenceProblem(lower, 18);
  std::vector<Val> x(problem.b.size());
  SyncFreeCpuOptions options;
  options.num_threads = 3;
  ASSERT_TRUE(SolveSyncFreeCpu(lower, problem.b, x, options).ok());
  EXPECT_LE(MaxRelativeError(x, problem.x_true), 1e-11);
}

}  // namespace
}  // namespace capellini::host

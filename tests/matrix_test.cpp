#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "matrix/convert.h"
#include "matrix/coo.h"
#include "matrix/csc.h"
#include "matrix/csr.h"
#include "matrix/mm_io.h"
#include "matrix/triangular.h"

namespace capellini {
namespace {

/// The paper's Figure 1 example shape: 8x8 unit-lower matrix with four
/// level-sets (rows 0,1,7 at level 0; 2,3,4 at level 1; 5 at level 2;
/// 6 at level 3).
Csr Figure1Matrix() {
  Coo coo(8, 8);
  for (Idx i = 0; i < 8; ++i) coo.Add(i, i, 1.0);
  coo.Add(2, 1, 0.5);
  coo.Add(3, 1, -0.25);
  coo.Add(4, 0, 0.125);
  coo.Add(4, 1, 0.25);
  coo.Add(5, 2, -0.5);
  coo.Add(6, 5, 0.375);
  return CooToCsr(std::move(coo));
}

TEST(CooTest, NormalizeSortsAndMergesDuplicates) {
  Coo coo(3, 3);
  coo.Add(2, 0, 1.0);
  coo.Add(0, 0, 2.0);
  coo.Add(2, 0, 3.0);
  coo.Add(1, 1, 4.0);
  coo.Normalize();
  ASSERT_EQ(coo.nnz(), 3);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 0, 2.0}));
  EXPECT_EQ(coo.entries()[1], (Triplet{1, 1, 4.0}));
  EXPECT_EQ(coo.entries()[2], (Triplet{2, 0, 4.0}));  // merged 1+3
}

TEST(CooTest, ValidateCatchesOutOfBounds) {
  Coo coo(2, 2);
  coo.Add(2, 0, 1.0);
  EXPECT_FALSE(coo.Validate().ok());
  Coo good(2, 2);
  good.Add(1, 1, 1.0);
  EXPECT_TRUE(good.Validate().ok());
}

TEST(CsrTest, ConstructionAndAccessors) {
  const Csr csr = Figure1Matrix();
  EXPECT_EQ(csr.rows(), 8);
  EXPECT_EQ(csr.cols(), 8);
  EXPECT_EQ(csr.nnz(), 14);
  EXPECT_TRUE(csr.Validate().ok());
  EXPECT_EQ(csr.RowLen(4), 3);
  EXPECT_EQ(csr.RowCols(4)[0], 0);
  EXPECT_EQ(csr.RowCols(4)[2], 4);  // diagonal last
}

TEST(CsrTest, IsLowerTriangularWithDiagonal) {
  EXPECT_TRUE(Figure1Matrix().IsLowerTriangularWithDiagonal());

  // Missing diagonal in row 1.
  Coo coo(2, 2);
  coo.Add(0, 0, 1.0);
  coo.Add(1, 0, 1.0);
  EXPECT_FALSE(CooToCsr(std::move(coo)).IsLowerTriangularWithDiagonal());

  // Upper entry.
  Coo coo2(2, 2);
  coo2.Add(0, 0, 1.0);
  coo2.Add(0, 1, 1.0);
  coo2.Add(1, 1, 1.0);
  EXPECT_FALSE(CooToCsr(std::move(coo2)).IsLowerTriangularWithDiagonal());

  // Non-square.
  Coo coo3(2, 3);
  coo3.Add(0, 0, 1.0);
  coo3.Add(1, 1, 1.0);
  EXPECT_FALSE(CooToCsr(std::move(coo3)).IsLowerTriangularWithDiagonal());

  // Empty row 1.
  const Csr empty_row(2, 2, {0, 1, 1}, {0}, {1.0});
  EXPECT_FALSE(empty_row.IsLowerTriangularWithDiagonal());

  // A default-constructed (0x0) matrix has no row to break the shape.
  EXPECT_TRUE(Csr().IsLowerTriangularWithDiagonal());

  // Copies and moves keep the recorded shape.
  const Csr lower = Figure1Matrix();
  const Csr upper = TransposeCsr(lower);
  ASSERT_FALSE(upper.IsLowerTriangularWithDiagonal());
  Csr lower_copy = lower;
  Csr upper_copy = upper;
  EXPECT_TRUE(lower_copy.IsLowerTriangularWithDiagonal());
  EXPECT_FALSE(upper_copy.IsLowerTriangularWithDiagonal());
  const Csr lower_moved = std::move(lower_copy);
  const Csr upper_moved = std::move(upper_copy);
  EXPECT_TRUE(lower_moved.IsLowerTriangularWithDiagonal());
  EXPECT_FALSE(upper_moved.IsLowerTriangularWithDiagonal());
}

TEST(CsrTest, WithRowsReplacedCopiesUntouchedRowsAroundThePatches) {
  // 4x4:  row0: (0,0)=1  row1: (1,0)=2 (1,1)=3  row2: (2,2)=4
  //       row3: (3,0)=5 (3,2)=6 (3,3)=7
  const Csr m(4, 4, {0, 1, 3, 4, 7}, {0, 0, 1, 2, 0, 2, 3},
              {1, 2, 3, 4, 5, 6, 7});
  ASSERT_TRUE(m.IsLowerTriangularWithDiagonal());

  const std::vector<Csr::RowPatch> none;
  auto same = m.WithRowsReplaced(none);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(*same, m);

  // Shrink row 1 and rewrite the last row; rows 0 and 2 are copied runs.
  const std::vector<Csr::RowPatch> patches = {
      {1, {{1, 9.0}}},
      {3, {{1, 8.0}, {2, 6.5}, {3, 7.0}}}};
  auto patched = m.WithRowsReplaced(patches);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  const Csr expected(4, 4, {0, 1, 2, 3, 6}, {0, 1, 2, 1, 2, 3},
                     {1, 9, 4, 8, 6.5, 7});
  EXPECT_EQ(*patched, expected);
  EXPECT_TRUE(patched->Validate().ok());
  EXPECT_TRUE(patched->IsLowerTriangularWithDiagonal());
  EXPECT_EQ(m.nnz(), 7);  // the source is untouched
}

TEST(CsrTest, WithRowsReplacedDerivesTheShapeFromThePatchedRows) {
  const Csr m = Figure1Matrix();
  // Drop row 5's diagonal, then put it back.
  auto broken =
      m.WithRowsReplaced(std::vector<Csr::RowPatch>{{5, {{2, -0.5}}}});
  ASSERT_TRUE(broken.ok());
  EXPECT_FALSE(broken->IsLowerTriangularWithDiagonal());
  auto mended = broken->WithRowsReplaced(
      std::vector<Csr::RowPatch>{{5, {{2, -0.5}, {5, 1.0}}}});
  ASSERT_TRUE(mended.ok());
  EXPECT_TRUE(mended->IsLowerTriangularWithDiagonal());
  EXPECT_EQ(*mended, m);

  // A matrix with two bad rows (0 is empty, 1 has an upper entry) needs
  // both patched before it has the shape.
  const Csr bad(3, 3, {0, 0, 2, 3}, {1, 2, 2}, {1, 1, 1});
  ASSERT_FALSE(bad.IsLowerTriangularWithDiagonal());
  auto one = bad.WithRowsReplaced(std::vector<Csr::RowPatch>{{0, {{0, 1.0}}}});
  ASSERT_TRUE(one.ok());
  EXPECT_FALSE(one->IsLowerTriangularWithDiagonal());
  auto both = one->WithRowsReplaced(
      std::vector<Csr::RowPatch>{{1, {{0, 1.0}, {1, 1.0}}}});
  ASSERT_TRUE(both.ok());
  EXPECT_TRUE(both->IsLowerTriangularWithDiagonal());
  EXPECT_EQ(*both, Csr(3, 3, {0, 1, 3, 4}, {0, 0, 1, 2}, {1, 1, 1, 1}));
}

TEST(CsrTest, WithRowsReplacedRejectsMalformedPatches) {
  const Csr m = Figure1Matrix();
  const auto expect_invalid = [&](std::vector<Csr::RowPatch> patches,
                                  const char* what) {
    auto result = m.WithRowsReplaced(patches);
    ASSERT_FALSE(result.ok()) << what;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << what;
  };
  expect_invalid({{3, {{3, 1.0}}}, {2, {{2, 1.0}}}}, "rows descending");
  expect_invalid({{2, {{2, 1.0}}}, {2, {{2, 1.0}}}}, "row repeated");
  expect_invalid({{8, {{0, 1.0}}}}, "row out of range");
  expect_invalid({{-1, {{0, 1.0}}}}, "negative row");
  expect_invalid({{4, {{1, 1.0}, {0, 1.0}, {4, 1.0}}}}, "columns unsorted");
  expect_invalid({{4, {{1, 1.0}, {1, 1.0}, {4, 1.0}}}}, "column repeated");
  expect_invalid({{4, {{-1, 1.0}, {4, 1.0}}}}, "negative column");
  expect_invalid({{4, {{4, 1.0}, {8, 1.0}}}}, "column out of range");
}

TEST(CsrTest, SpMvMatchesHandComputation) {
  const Csr csr = Figure1Matrix();
  std::vector<Val> x(8, 1.0);
  std::vector<Val> y(8, 0.0);
  csr.SpMv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[2], 1.5);       // 0.5 + 1
  EXPECT_DOUBLE_EQ(y[4], 1.375);     // 0.125 + 0.25 + 1
  EXPECT_DOUBLE_EQ(y[6], 1.375);     // 0.375 + 1
}

TEST(CsrTest, ValidateRejectsUnsortedColumns) {
  std::vector<Idx> row_ptr = {0, 2};
  std::vector<Idx> col_idx = {1, 0};
  std::vector<Val> val = {1.0, 2.0};
  const Csr csr(1, 2, row_ptr, col_idx, val);
  EXPECT_FALSE(csr.Validate().ok());
}

TEST(ConvertTest, CsrCooRoundTrip) {
  const Csr csr = Figure1Matrix();
  const Csr back = CooToCsr(CsrToCoo(csr));
  EXPECT_EQ(csr, back);
}

TEST(ConvertTest, CsrCscRoundTrip) {
  const Csr csr = Figure1Matrix();
  const Csc csc = CsrToCsc(csr);
  EXPECT_TRUE(csc.Validate().ok());
  EXPECT_EQ(csc.nnz(), csr.nnz());
  const Csr back = CscToCsr(csc);
  EXPECT_EQ(csr, back);
}

TEST(ConvertTest, CscDiagonalFirstForLowerTriangular) {
  const Csc csc = CsrToCsc(Figure1Matrix());
  for (Idx c = 0; c < csc.cols(); ++c) {
    ASSERT_GT(csc.ColLen(c), 0);
    EXPECT_EQ(csc.row_idx()[static_cast<std::size_t>(csc.ColBegin(c))], c);
  }
}

TEST(ConvertTest, TransposeTwiceIsIdentity) {
  const Csr csr = Figure1Matrix();
  const Csr twice = TransposeCsr(TransposeCsr(csr));
  EXPECT_EQ(csr, twice);
}

TEST(ConvertTest, TransposeMovesEntries) {
  const Csr csr = Figure1Matrix();
  const Csr t = TransposeCsr(csr);
  // L(4,0) becomes T(0,4).
  bool found = false;
  for (std::size_t j = 0; j < t.RowCols(0).size(); ++j) {
    if (t.RowCols(0)[j] == 4) {
      EXPECT_DOUBLE_EQ(t.RowVals(0)[j], 0.125);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TriangularTest, ExtractKeepsLowerAndForcesDiagonal) {
  // A general matrix with upper entries and missing diagonal.
  Coo coo(4, 4);
  coo.Add(0, 2, 9.0);   // upper: dropped
  coo.Add(1, 0, 3.0);   // lower: kept
  coo.Add(2, 3, 5.0);   // upper: dropped
  coo.Add(3, 1, -2.0);  // lower: kept
  const Csr general = CooToCsr(std::move(coo));

  LowerTriangularOptions options;
  options.rescale_off_diagonal = false;
  const Csr lower = ExtractLowerTriangular(general, options);
  EXPECT_TRUE(lower.IsLowerTriangularWithDiagonal());
  EXPECT_EQ(lower.nnz(), 4 + 2);  // 4 diagonals + 2 kept entries
  EXPECT_DOUBLE_EQ(lower.RowVals(1)[0], 3.0);   // kept original value
  EXPECT_DOUBLE_EQ(lower.RowVals(1)[1], 1.0);   // unit diagonal
}

TEST(TriangularTest, RescaledValuesAreBounded) {
  Coo coo(64, 64);
  for (Idx i = 0; i < 64; ++i) {
    for (Idx j = 0; j < i; ++j) coo.Add(i, j, 100.0);
  }
  const Csr general = CooToCsr(std::move(coo));
  const Csr lower = ExtractLowerTriangular(general, {});
  EXPECT_TRUE(lower.IsLowerTriangularWithDiagonal());
  for (Idx r = 0; r < lower.rows(); ++r) {
    const auto vals = lower.RowVals(r);
    double offdiag_sum = 0.0;
    for (std::size_t j = 0; j + 1 < vals.size(); ++j) {
      offdiag_sum += std::abs(vals[j]);
    }
    // Row sums stay below the diagonal: solves are well conditioned.
    EXPECT_LT(offdiag_sum, 1.0) << "row " << r;
  }
}

TEST(TriangularTest, ReferenceProblemConsistent) {
  const Csr lower = Figure1Matrix();
  const ReferenceProblem problem = MakeReferenceProblem(lower, 42);
  ASSERT_EQ(problem.x_true.size(), 8u);
  std::vector<Val> check(8);
  lower.SpMv(problem.x_true, check);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(check[i], problem.b[i]);
  }
}

TEST(TriangularTest, MaxRelativeError) {
  const std::vector<Val> ref = {1.0, 2.0, 100.0};
  const std::vector<Val> exact = ref;
  EXPECT_DOUBLE_EQ(MaxRelativeError(exact, ref), 0.0);
  const std::vector<Val> off = {1.0, 2.0, 101.0};
  EXPECT_NEAR(MaxRelativeError(off, ref), 0.01, 1e-12);
}

TEST(MmIoTest, RoundTrip) {
  const Csr csr = Figure1Matrix();
  std::ostringstream out;
  ASSERT_TRUE(WriteMatrixMarket(CsrToCoo(csr), out).ok());

  std::istringstream in(out.str());
  auto coo = ReadMatrixMarket(in);
  ASSERT_TRUE(coo.ok()) << coo.status().ToString();
  EXPECT_EQ(CooToCsr(std::move(*coo)), csr);
}

TEST(MmIoTest, ReadsPatternAndSymmetric) {
  const std::string text =
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% comment line\n"
      "3 3 2\n"
      "2 1\n"
      "3 3\n";
  std::istringstream in(text);
  auto coo = ReadMatrixMarket(in);
  ASSERT_TRUE(coo.ok()) << coo.status().ToString();
  // (2,1) expands to (1,0) and (0,1); (3,3) stays single.
  EXPECT_EQ(coo->nnz(), 3);
  EXPECT_EQ(coo->rows(), 3);
}

TEST(MmIoTest, FileRoundTrip) {
  const Csr csr = Figure1Matrix();
  const std::string path = ::testing::TempDir() + "/capellini_roundtrip.mtx";
  ASSERT_TRUE(WriteMatrixMarketFile(CsrToCoo(csr), path).ok());
  auto coo = ReadMatrixMarketFile(path);
  ASSERT_TRUE(coo.ok()) << coo.status().ToString();
  EXPECT_EQ(CooToCsr(std::move(*coo)), csr);
  std::remove(path.c_str());
}

TEST(MmIoTest, MissingFileReportsIoError) {
  auto coo = ReadMatrixMarketFile("/nonexistent/path/matrix.mtx");
  ASSERT_FALSE(coo.ok());
  EXPECT_EQ(coo.status().code(), StatusCode::kIoError);
}

TEST(MmIoTest, PreservesValuesExactly) {
  Coo coo(2, 2);
  coo.Add(0, 0, 1.0 / 3.0);
  coo.Add(1, 1, -2.718281828459045);
  std::ostringstream out;
  ASSERT_TRUE(WriteMatrixMarket(coo, out).ok());
  std::istringstream in(out.str());
  auto back = ReadMatrixMarket(in);
  ASSERT_TRUE(back.ok());
  back->Normalize();
  EXPECT_DOUBLE_EQ(back->entries()[0].val, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(back->entries()[1].val, -2.718281828459045);
}

TEST(MmIoTest, RejectsGarbage) {
  std::istringstream bad("not a matrix market file\n");
  EXPECT_FALSE(ReadMatrixMarket(bad).ok());

  std::istringstream array_fmt("%%MatrixMarket matrix array real general\n1 1\n1.0\n");
  EXPECT_FALSE(ReadMatrixMarket(array_fmt).ok());

  std::istringstream oob(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n");
  EXPECT_FALSE(ReadMatrixMarket(oob).ok());
}

}  // namespace
}  // namespace capellini

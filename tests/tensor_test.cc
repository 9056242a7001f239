#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "tensor/init.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "util/random.h"

namespace hosr::tensor {
namespace {

// --- Matrix -----------------------------------------------------------------

TEST(MatrixTest, ConstructionAndFill) {
  Matrix m(3, 4, 2.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_FLOAT_EQ(m.at(2, 3), 2.5f);
  m.SetZero();
  EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
}

TEST(MatrixTest, FromRows) {
  const Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_FLOAT_EQ(m.at(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(m.at(2, 1), 6.0f);
}

TEST(MatrixTest, EmptyMatrix) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

TEST(MatrixTest, RowAccess) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  const float* r1 = m.row(1);
  EXPECT_FLOAT_EQ(r1[0], 4.0f);
  EXPECT_FLOAT_EQ(r1[2], 6.0f);
  m.row(0)[1] = 9.0f;
  EXPECT_FLOAT_EQ(m.at(0, 1), 9.0f);
}

TEST(MatrixTest, CopyIsDeep) {
  Matrix a(2, 2, 1.0f);
  Matrix b = a;
  b.at(0, 0) = 5.0f;
  EXPECT_FLOAT_EQ(a.at(0, 0), 1.0f);
}

TEST(MatrixTest, SameShape) {
  EXPECT_TRUE(Matrix(2, 3).SameShape(Matrix(2, 3)));
  EXPECT_FALSE(Matrix(2, 3).SameShape(Matrix(3, 2)));
}

// --- GEMM -------------------------------------------------------------------

TEST(GemmTest, PlainMultiply) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  const Matrix c = MatMul(a, b);
  EXPECT_TRUE(AllClose(c, Matrix::FromRows({{19, 22}, {43, 50}})));
}

TEST(GemmTest, TransposeA) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});  // 3x2
  const Matrix b = Matrix::FromRows({{1, 0}, {0, 1}, {1, 1}});  // 3x2
  Matrix out(2, 2);
  Gemm(a, true, b, false, 1.0f, 0.0f, &out);
  // a^T b = [[1+5, 3+5], [2+6, 4+6]] = [[6, 8], [8, 10]]
  EXPECT_TRUE(AllClose(out, Matrix::FromRows({{6, 8}, {8, 10}})));
}

TEST(GemmTest, TransposeB) {
  const Matrix a = Matrix::FromRows({{1, 2}});      // 1x2
  const Matrix b = Matrix::FromRows({{3, 4}, {5, 6}});  // 2x2 -> b^T
  Matrix out(1, 2);
  Gemm(a, false, b, true, 1.0f, 0.0f, &out);
  EXPECT_TRUE(AllClose(out, Matrix::FromRows({{11, 17}})));
}

TEST(GemmTest, AlphaBetaAccumulate) {
  const Matrix a = Matrix::FromRows({{1, 0}, {0, 1}});
  const Matrix b = Matrix::FromRows({{2, 0}, {0, 2}});
  Matrix out = Matrix::FromRows({{10, 0}, {0, 10}});
  Gemm(a, false, b, false, 3.0f, 1.0f, &out);
  EXPECT_TRUE(AllClose(out, Matrix::FromRows({{16, 0}, {0, 16}})));
}

TEST(GemmTest, BothTransposed) {
  util::Rng rng(3);
  Matrix a(4, 3), b(5, 4);
  GaussianInit(&a, 1.0f, &rng);
  GaussianInit(&b, 1.0f, &rng);
  Matrix out(3, 5);
  Gemm(a, true, b, true, 1.0f, 0.0f, &out);
  // Reference: transpose explicitly.
  const Matrix reference = MatMul(Transpose(a), Transpose(b));
  EXPECT_TRUE(AllClose(out, reference, 1e-4));
}

TEST(GemmTest, LargeMatchesNaive) {
  util::Rng rng(4);
  Matrix a(37, 23), b(23, 41);
  GaussianInit(&a, 1.0f, &rng);
  GaussianInit(&b, 1.0f, &rng);
  const Matrix fast = MatMul(a, b);
  Matrix naive(37, 41);
  for (size_t i = 0; i < 37; ++i) {
    for (size_t j = 0; j < 41; ++j) {
      float acc = 0;
      for (size_t k = 0; k < 23; ++k) acc += a(i, k) * b(k, j);
      naive(i, j) = acc;
    }
  }
  EXPECT_TRUE(AllClose(fast, naive, 1e-3));
}

// --- Element-wise ops ---------------------------------------------------------

TEST(OpsTest, AddSubHadamardScale) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  EXPECT_TRUE(AllClose(Add(a, b), Matrix::FromRows({{11, 22}, {33, 44}})));
  EXPECT_TRUE(AllClose(Sub(b, a), Matrix::FromRows({{9, 18}, {27, 36}})));
  EXPECT_TRUE(
      AllClose(Hadamard(a, b), Matrix::FromRows({{10, 40}, {90, 160}})));
  EXPECT_TRUE(AllClose(Scale(a, 2.0f), Matrix::FromRows({{2, 4}, {6, 8}})));
}

TEST(OpsTest, Axpy) {
  Matrix a = Matrix::FromRows({{1, 1}});
  const Matrix b = Matrix::FromRows({{2, 3}});
  Axpy(2.0f, b, &a);
  EXPECT_TRUE(AllClose(a, Matrix::FromRows({{5, 7}})));
}

TEST(OpsTest, ActivationsMatchStd) {
  const Matrix x = Matrix::FromRows({{-2, -0.5, 0, 0.5, 2}});
  const Matrix t = Tanh(x);
  const Matrix r = Relu(x);
  for (size_t c = 0; c < 5; ++c) {
    EXPECT_NEAR(t(0, c), std::tanh(x(0, c)), 1e-6);
    EXPECT_FLOAT_EQ(r(0, c), std::max(0.0f, x(0, c)));
  }
}

TEST(OpsTest, RowDotAndSums) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  const Matrix dot = RowDot(a, b);
  EXPECT_FLOAT_EQ(dot(0, 0), 17.0f);
  EXPECT_FLOAT_EQ(dot(1, 0), 53.0f);
  const Matrix cs = ColSum(a);
  EXPECT_FLOAT_EQ(cs(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(cs(0, 1), 6.0f);
}

TEST(OpsTest, RowSoftmaxRowsSumToOne) {
  const Matrix x = Matrix::FromRows({{1, 2, 3}, {-5, 0, 5}, {100, 100, 100}});
  const Matrix s = RowSoftmax(x);
  for (size_t r = 0; r < 3; ++r) {
    float sum = 0;
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_GT(s(r, c), 0.0f);
      sum += s(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  // Monotone in the input.
  EXPECT_LT(s(0, 0), s(0, 1));
  EXPECT_LT(s(0, 1), s(0, 2));
  // Large equal logits do not overflow.
  EXPECT_NEAR(s(2, 0), 1.0f / 3, 1e-5);
}

TEST(OpsTest, RowSoftmaxHandlesExtremeLogits) {
  const Matrix x = Matrix::FromRows({{1000, -1000}});
  const Matrix s = RowSoftmax(x);
  EXPECT_NEAR(s(0, 0), 1.0f, 1e-6);
  EXPECT_NEAR(s(0, 1), 0.0f, 1e-6);
}

TEST(OpsTest, BroadcastColMul) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix s = Matrix::FromRows({{2}, {10}});
  EXPECT_TRUE(
      AllClose(BroadcastColMul(a, s), Matrix::FromRows({{2, 4}, {30, 40}})));
}

TEST(OpsTest, GatherScatterRoundTrip) {
  const Matrix a = Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}});
  const std::vector<uint32_t> idx{2, 0, 2};
  const Matrix g = GatherRows(a, idx);
  EXPECT_TRUE(AllClose(g, Matrix::FromRows({{3, 3}, {1, 1}, {3, 3}})));
  Matrix out(3, 2);
  ScatterAddRows(g, idx, &out);
  // Row 2 receives two contributions.
  EXPECT_TRUE(AllClose(out, Matrix::FromRows({{1, 1}, {0, 0}, {6, 6}})));
}

TEST(OpsTest, TransposeInvolution) {
  util::Rng rng(5);
  Matrix a(7, 3);
  GaussianInit(&a, 1.0f, &rng);
  EXPECT_TRUE(AllClose(Transpose(Transpose(a)), a));
}

TEST(OpsTest, Reductions) {
  const Matrix a = Matrix::FromRows({{1, -2}, {3, -4}});
  EXPECT_DOUBLE_EQ(Sum(a), -2.0);
  EXPECT_DOUBLE_EQ(Mean(a), -0.5);
  EXPECT_DOUBLE_EQ(SquaredNorm(a), 30.0);
  EXPECT_DOUBLE_EQ(MaxAbs(a), 4.0);
}

TEST(OpsTest, AllCloseRespectsTolerance) {
  const Matrix a = Matrix::FromRows({{1.0f}});
  const Matrix b = Matrix::FromRows({{1.0001f}});
  EXPECT_TRUE(AllClose(a, b, 1e-3));
  EXPECT_FALSE(AllClose(a, b, 1e-6));
  EXPECT_FALSE(AllClose(a, Matrix(2, 1)));
}

// --- Init -------------------------------------------------------------------

TEST(InitTest, GaussianStddev) {
  util::Rng rng(6);
  Matrix m(200, 200);
  GaussianInit(&m, 0.5f, &rng);
  EXPECT_NEAR(Mean(m), 0.0, 0.01);
  EXPECT_NEAR(std::sqrt(SquaredNorm(m) / m.size()), 0.5, 0.01);
}

TEST(InitTest, XavierUniformBounds) {
  util::Rng rng(7);
  Matrix m(30, 20);
  XavierUniformInit(&m, &rng);
  const float bound = std::sqrt(6.0f / (30 + 20));
  EXPECT_LE(MaxAbs(m), bound);
  EXPECT_GT(MaxAbs(m), bound * 0.8);  // actually fills the range
}

TEST(InitTest, UniformRange) {
  util::Rng rng(8);
  Matrix m(50, 50);
  UniformInit(&m, -2.0f, 3.0f, &rng);
  const float* p = m.data();
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_GE(p[i], -2.0f);
    EXPECT_LT(p[i], 3.0f);
  }
  EXPECT_NEAR(Mean(m), 0.5, 0.1);
}

// --- Serialize ---------------------------------------------------------------

TEST(SerializeTest, BufferRoundTrip) {
  util::Rng rng(9);
  Matrix m(13, 7);
  GaussianInit(&m, 1.0f, &rng);
  std::string bytes;
  util::ByteWriter out(&bytes);
  WriteMatrix(m, &out);
  util::ByteReader in(bytes);
  const auto loaded = ReadMatrix(&in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(AllClose(*loaded, m, 0.0));
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(SerializeTest, FileRoundTrip) {
  Matrix m = Matrix::FromRows({{1, 2, 3}});
  const std::string path = ::testing::TempDir() + "/hosr_matrix_test.bin";
  ASSERT_TRUE(SaveMatrix(m, path).ok());
  const auto loaded = LoadMatrix(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(AllClose(*loaded, m, 0.0));
}

TEST(SerializeTest, RejectsBadMagic) {
  util::ByteReader in("not a matrix at all, just text");
  const auto loaded = ReadMatrix(&in);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(SerializeTest, RejectsTruncatedPayload) {
  Matrix m(4, 4, 1.0f);
  std::string bytes;
  util::ByteWriter out(&bytes);
  WriteMatrix(m, &out);
  bytes.resize(bytes.size() - 8);
  util::ByteReader truncated(bytes);
  const auto loaded = ReadMatrix(&truncated);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
}

TEST(SerializeTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadMatrix("/nonexistent/path/m.bin").ok());
}

}  // namespace
}  // namespace hosr::tensor

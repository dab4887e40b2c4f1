#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/eigen.hpp"
#include "tensor/random.hpp"

namespace dkfac::linalg {
namespace {

Tensor random_spd(int64_t n, uint64_t seed, float jitter = 0.1f) {
  Rng rng(seed);
  Tensor m = Tensor::randn(Shape{n, n}, rng);
  Tensor a = matmul(m, m, Trans::kYes, Trans::kNo);
  add_diagonal(a, jitter);
  return a;
}

TEST(Cholesky, Known2x2) {
  Tensor a(Shape{2, 2}, {4, 2, 2, 5});
  Tensor l = cholesky(a);
  EXPECT_FLOAT_EQ(l.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(l.at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(l.at(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(l.at(0, 1), 0.0f);
}

class CholeskySizes : public ::testing::TestWithParam<int64_t> {};

TEST_P(CholeskySizes, LLtReconstructsA) {
  const int64_t n = GetParam();
  Tensor a = random_spd(n, 600 + static_cast<uint64_t>(n));
  Tensor l = cholesky(a);
  Tensor llt = matmul(l, l, Trans::kNo, Trans::kYes);
  EXPECT_LT(frobenius_distance(a, llt), 1e-3f * static_cast<float>(n));
}

TEST_P(CholeskySizes, InverseTimesAIsIdentity) {
  const int64_t n = GetParam();
  Tensor a = random_spd(n, 700 + static_cast<uint64_t>(n));
  Tensor inv = spd_inverse(a);
  Tensor prod = matmul(inv, a);
  EXPECT_LT(frobenius_distance(prod, Tensor::eye(n)), 2e-3f * static_cast<float>(n));
}

TEST_P(CholeskySizes, SolveMatchesInverse) {
  // The explicit-inverse path solves A·X = B by multiplying with A⁻¹.
  const int64_t n = GetParam();
  Tensor a = random_spd(n, 800 + static_cast<uint64_t>(n));
  Rng rng(900 + static_cast<uint64_t>(n));
  Tensor b = Tensor::randn(Shape{n, 3}, rng);
  Tensor x = matmul(spd_inverse(a), b);
  Tensor ax = matmul(a, x);
  EXPECT_LT(frobenius_distance(ax, b), 1e-3f * static_cast<float>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizes,
                         ::testing::Values<int64_t>(1, 2, 4, 8, 16, 32, 64));

TEST(Cholesky, NotPositiveDefiniteThrows) {
  Tensor a(Shape{2, 2}, {1, 2, 2, 1});  // eigenvalues 3 and -1
  EXPECT_THROW(cholesky(a), Error);
}

TEST(Cholesky, SingularThrows) {
  Tensor a = Tensor::zeros(Shape{3, 3});
  EXPECT_THROW(cholesky(a), Error);
}

TEST(Cholesky, NonSquareThrows) {
  EXPECT_THROW(cholesky(Tensor(Shape{2, 3})), Error);
}

TEST(Cholesky, DampingRescuesSingularFactor) {
  // The K-FAC scenario: aaᵀ is singular, (aaᵀ + γI) is SPD.
  Rng rng(13);
  Tensor v = Tensor::randn(Shape{5, 1}, rng);
  Tensor f = matmul(v, v, Trans::kNo, Trans::kYes);
  EXPECT_THROW(cholesky(f), Error);
  add_diagonal(f, 1e-3f);
  EXPECT_NO_THROW(cholesky(f));
}

TEST(SpdInverse, IsSymmetric) {
  Tensor a = random_spd(10, 14);
  Tensor inv = spd_inverse(a);
  EXPECT_EQ(asymmetry(inv), 0.0f);
}

TEST(SpdInverse, MatchesEigenBasedInverse) {
  // Independent path: A⁻¹ = V diag(1/λ) Vᵀ.
  Tensor a = random_spd(8, 15);
  Tensor chol_inv = spd_inverse(a);

  auto e = sym_eig(a);
  Tensor scaled = e.vectors;
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j < 8; ++j) scaled.at(i, j) /= e.values[j];
  }
  Tensor eig_inv = matmul(scaled, e.vectors, Trans::kNo, Trans::kYes);
  EXPECT_LT(frobenius_distance(chol_inv, eig_inv), 5e-3f);
}

}  // namespace
}  // namespace dkfac::linalg

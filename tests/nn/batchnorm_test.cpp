#include "nn/batchnorm.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "grad_check.hpp"

namespace dkfac::nn {
namespace {

TEST(BatchNorm, NormalisesBatchStatistics) {
  BatchNorm2d bn(2);
  Rng rng(40);
  Tensor x = Tensor::randn(Shape{8, 2, 4, 4}, rng, /*mean=*/3.0f, /*stddev=*/2.0f);
  Tensor y = bn.forward(x);

  // Per-channel output mean ≈ 0, var ≈ 1 (γ=1, β=0 at init).
  for (int64_t c = 0; c < 2; ++c) {
    double sum = 0.0, sumsq = 0.0;
    int64_t count = 0;
    for (int64_t b = 0; b < 8; ++b) {
      for (int64_t i = 0; i < 16; ++i) {
        const float v = y.data()[(b * 2 + c) * 16 + i];
        sum += v;
        sumsq += static_cast<double>(v) * v;
        ++count;
      }
    }
    const double mean = sum / count;
    const double var = sumsq / count - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, GammaBetaApplied) {
  BatchNorm2d bn(1);
  bn.gamma().value[0] = 2.0f;
  bn.beta().value[0] = 5.0f;
  Rng rng(41);
  Tensor x = Tensor::randn(Shape{16, 1, 2, 2}, rng);
  Tensor y = bn.forward(x);
  double sum = 0.0;
  for (int64_t i = 0; i < y.numel(); ++i) sum += y[i];
  EXPECT_NEAR(sum / y.numel(), 5.0, 1e-3);  // mean shifted to β
}

TEST(BatchNorm, EvalModeUsesRunningStats) {
  BatchNorm2d bn(1, "bn", /*momentum=*/1.0f);  // running stats = last batch
  Rng rng(42);
  Tensor x = Tensor::randn(Shape{64, 1, 2, 2}, rng, 10.0f, 3.0f);
  bn.forward(x);

  bn.set_training(false);
  // A constant input equal to the previous batch mean normalises to ≈ 0.
  const float mu = bn.running_mean()[0];
  Tensor probe = Tensor::full(Shape{1, 1, 2, 2}, mu);
  Tensor y = bn.forward(probe);
  EXPECT_NEAR(y[0], 0.0f, 1e-2f);
}

TEST(BatchNorm, EvalModeIsPerSampleDeterministic) {
  // In eval mode the output of sample i must not depend on the batch.
  BatchNorm2d bn(2);
  Rng rng(43);
  bn.forward(Tensor::randn(Shape{8, 2, 3, 3}, rng));  // populate running stats
  bn.set_training(false);

  Tensor one = Tensor::randn(Shape{1, 2, 3, 3}, rng);
  Tensor batch(Shape{2, 2, 3, 3});
  for (int64_t i = 0; i < one.numel(); ++i) batch[i] = one[i];
  for (int64_t i = 0; i < one.numel(); ++i) batch[one.numel() + i] = 7.0f;

  Tensor y_single = bn.forward(one);
  Tensor y_batch = bn.forward(batch);
  for (int64_t i = 0; i < one.numel(); ++i) {
    EXPECT_FLOAT_EQ(y_batch[i], y_single[i]);
  }
}

TEST(BatchNorm, EvalOutputIsTheAffineNormalisationBitwise) {
  // Eval mode keeps no x̂, yet each output must be, bit for bit,
  // γ·((x − running_mean)·inv_std) + β with inv_std = 1/√(running_var + ε).
  const float eps = 1e-5f;
  BatchNorm2d bn(3, "bn", /*momentum=*/0.3f, eps);
  Rng rng(44);
  bn.forward(Tensor::randn(Shape{4, 3, 5, 5}, rng, 2.0f, 1.5f));  // running stats
  for (int64_t c = 0; c < 3; ++c) {
    bn.gamma().value[c] = 0.5f + 0.75f * static_cast<float>(c);
    bn.beta().value[c] = -1.25f + static_cast<float>(c);
  }
  bn.set_training(false);

  const Tensor x = Tensor::randn(Shape{2, 3, 5, 5}, rng, 1.0f, 2.0f);
  const Tensor y = bn.forward(x);
  ASSERT_EQ(y.shape(), x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) {
    const int64_t c = (i / 25) % 3;
    const float inv_std = 1.0f / std::sqrt(bn.running_var()[c] + eps);
    const float want =
        bn.gamma().value[c] * ((x[i] - bn.running_mean()[c]) * inv_std) +
        bn.beta().value[c];
    EXPECT_EQ(std::bit_cast<uint32_t>(y[i]), std::bit_cast<uint32_t>(want))
        << "element " << i;
  }
}

TEST(BatchNorm, GradCheck) {
  BatchNorm2d bn(3);
  Rng rng(44);
  // Scale/shift away from the init point so the test is not trivial.
  rng.fill_normal(bn.gamma().value.span(), 1.0f, 0.2f);
  rng.fill_normal(bn.beta().value.span(), 0.0f, 0.2f);
  Tensor x = Tensor::randn(Shape{4, 3, 3, 3}, rng);
  testing::check_gradients(bn, x, {.eps = 1e-2f, .rtol = 4e-2f, .atol = 4e-3f});
}

TEST(BatchNorm, BackwardSumsToZeroPerChannel) {
  // Σ over batch/spatial of dL/dx is 0 when dL/dy is constant — the mean
  // subtraction makes BN invariant to constant input shifts.
  BatchNorm2d bn(2);
  Rng rng(45);
  Tensor x = Tensor::randn(Shape{4, 2, 3, 3}, rng);
  bn.forward(x);
  Tensor dy = Tensor::ones(x.shape());
  Tensor dx = bn.backward(dy);
  for (int64_t c = 0; c < 2; ++c) {
    double sum = 0.0;
    for (int64_t b = 0; b < 4; ++b) {
      for (int64_t i = 0; i < 9; ++i) sum += dx.data()[(b * 2 + c) * 9 + i];
    }
    EXPECT_NEAR(sum, 0.0, 1e-3);
  }
}

TEST(BatchNorm, ChannelMismatchThrows) {
  BatchNorm2d bn(4);
  EXPECT_THROW(bn.forward(Tensor(Shape{1, 3, 2, 2})), Error);
}

TEST(BatchNorm, BackwardBeforeForwardThrows) {
  BatchNorm2d bn(1);
  EXPECT_THROW(bn.backward(Tensor(Shape{1, 1, 2, 2})), Error);
}

TEST(BatchNorm, NotKfacEligible) {
  BatchNorm2d bn(2);
  EXPECT_EQ(bn.kfac_layers().size(), 0u);
}

}  // namespace
}  // namespace dkfac::nn

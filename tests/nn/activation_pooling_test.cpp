#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "common/error.hpp"
#include "grad_check.hpp"
#include "nn/activation.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"

namespace dkfac::nn {
namespace {

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  Tensor x(Shape{4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(ReLU, BackwardMasksGradient) {
  ReLU relu;
  Tensor x(Shape{3}, {-1.0f, 1.0f, 2.0f});
  relu.forward(x);
  Tensor g(Shape{3}, {10.0f, 20.0f, 30.0f});
  Tensor dx = relu.backward(g);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 20.0f);
  EXPECT_FLOAT_EQ(dx[2], 30.0f);
}

TEST(ReLU, SpecialValuesExactBits) {
  const float denormal = std::numeric_limits<float>::denorm_min();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float payload_nan = std::bit_cast<float>(0xffc00123u);  // −NaN, payload
  auto bits = [](const Tensor& t) {
    std::vector<uint32_t> out;
    for (int64_t i = 0; i < t.numel(); ++i) out.push_back(std::bit_cast<uint32_t>(t[i]));
    return out;
  };

  // Only x > 0 passes: −0, +0 and NaN all become +0; a denormal survives.
  ReLU relu;
  Tensor x(Shape{6}, {-0.0f, 0.0f, nan, denormal, -1.0f, 1.0f});
  EXPECT_EQ(bits(relu.forward(x)),
            bits(Tensor(Shape{6}, {0.0f, 0.0f, 0.0f, denormal, 0.0f, 1.0f})));

  // Backward keeps g's exact bits (−0 and NaN too) where x > 0, +0 elsewhere.
  Tensor g(Shape{6}, {payload_nan, -0.0f, 3.0f, -0.0f, -2.0f, payload_nan});
  EXPECT_EQ(bits(relu.backward(g)),
            bits(Tensor(Shape{6}, {0.0f, 0.0f, 0.0f, -0.0f, 0.0f, payload_nan})));
}

TEST(ReLU, GradCheck) {
  ReLU relu;
  Rng rng(50);
  // Keep inputs away from the kink at 0.
  Tensor x = Tensor::randn(Shape{3, 7}, rng);
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::abs(x[i]) < 0.1f) x[i] = 0.5f;
  }
  testing::check_gradients(relu, x);
}

TEST(MaxPool, ForwardSelectsMaxima) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 4}, {1, 5, 2, 3,
                               4, 0, 7, 6});
  Tensor y = pool.forward(x);
  ASSERT_EQ(y.shape(), Shape({1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 7.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, {1, 5, 4, 0});
  pool.forward(x);
  Tensor g(Shape{1, 1, 1, 1}, {3.0f});
  Tensor dx = pool.backward(g);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 3.0f);  // argmax position
  EXPECT_FLOAT_EQ(dx[2], 0.0f);
  EXPECT_FLOAT_EQ(dx[3], 0.0f);
}

TEST(MaxPool, OverlappingWindowsAccumulate) {
  MaxPool2d pool(3, 2, 1);  // the ResNet stem pool
  Rng rng(51);
  Tensor x = Tensor::randn(Shape{2, 2, 8, 8}, rng);
  Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 2, 4, 4}));
  Tensor dx = pool.backward(Tensor::ones(y.shape()));
  // Total gradient mass is conserved (each output routes 1 unit).
  EXPECT_NEAR(dx.sum(), static_cast<float>(y.numel()), 1e-3f);
}

TEST(MaxPool, GradCheck) {
  MaxPool2d pool(2, 2);
  Rng rng(52);
  Tensor x = Tensor::randn(Shape{2, 2, 4, 4}, rng);
  // Spread values so the argmax is stable under the probe eps.
  x.scale_(10.0f);
  testing::check_gradients(pool, x, {.eps = 1e-2f});
}

TEST(GlobalAvgPool, ForwardAverages) {
  GlobalAvgPool gap;
  Tensor x(Shape{1, 2, 2, 2}, {1, 2, 3, 4,  10, 20, 30, 40});
  Tensor y = gap.forward(x);
  ASSERT_EQ(y.shape(), Shape({1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 25.0f);
}

TEST(GlobalAvgPool, BackwardSpreadsEvenly) {
  GlobalAvgPool gap;
  Tensor x = Tensor::ones(Shape{1, 1, 2, 2});
  gap.forward(x);
  Tensor dx = gap.backward(Tensor(Shape{1, 1}, {8.0f}));
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(dx[i], 2.0f);
}

TEST(GlobalAvgPool, GradCheck) {
  GlobalAvgPool gap;
  Rng rng(53);
  Tensor x = Tensor::randn(Shape{3, 4, 3, 3}, rng);
  testing::check_gradients(gap, x);
}

TEST(Flatten, RoundTrip) {
  Flatten flatten;
  Rng rng(54);
  Tensor x = Tensor::randn(Shape{2, 3, 4, 5}, rng);
  Tensor y = flatten.forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 60}));
  Tensor dx = flatten.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_TRUE(allclose(dx, x));
}

TEST(Sequential, ChainsForwardAndBackward) {
  Rng rng(55);
  Sequential seq;
  seq.emplace<ReLU>("r1");
  seq.emplace<Flatten>("f");
  Tensor x = Tensor::randn(Shape{2, 2, 2, 2}, rng);
  Tensor y = seq.forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 8}));
  EXPECT_EQ(seq.size(), 2u);
  EXPECT_EQ(seq.modules().size(), 3u);  // self + 2 children
}

TEST(Sequential, TrainingFlagPropagates) {
  Sequential seq;
  seq.emplace<ReLU>("r");
  seq.set_training(false);
  for (Layer* m : seq.modules()) EXPECT_FALSE(m->training());
  seq.set_training(true);
  for (Layer* m : seq.modules()) EXPECT_TRUE(m->training());
}

}  // namespace
}  // namespace dkfac::nn

#include "nn/conv2d.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "grad_check.hpp"
#include "linalg/blas.hpp"

namespace dkfac::nn {
namespace {

TEST(ConvOutSize, Formula) {
  EXPECT_EQ(conv_out_size(32, 3, 1, 1), 32);
  EXPECT_EQ(conv_out_size(32, 3, 2, 1), 16);
  EXPECT_EQ(conv_out_size(224, 7, 2, 3), 112);
  EXPECT_EQ(conv_out_size(5, 1, 1, 0), 5);
  EXPECT_THROW(conv_out_size(2, 5, 1, 0), Error);
}

TEST(Im2col, IdentityKernelIsReshape) {
  // 1×1 kernel, stride 1: each patch is exactly one pixel per channel.
  Tensor x(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor cols = im2col(x, 1, 1, 0);
  ASSERT_EQ(cols.shape(), Shape({2, 4}));
  EXPECT_FLOAT_EQ(cols.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(cols.at(1, 0), 5.0f);
  EXPECT_FLOAT_EQ(cols.at(0, 3), 4.0f);
  EXPECT_FLOAT_EQ(cols.at(1, 3), 8.0f);
}

TEST(Im2col, PaddingProducesZeros) {
  Tensor x = Tensor::ones(Shape{1, 1, 2, 2});
  Tensor cols = im2col(x, 3, 1, 1);
  ASSERT_EQ(cols.shape(), Shape({9, 4}));
  // Top-left output position: only the bottom-right 2×2 of the window is
  // inside the image.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);  // (-1,-1)
  EXPECT_FLOAT_EQ(cols.at(4, 0), 1.0f);  // (0,0)
  EXPECT_FLOAT_EQ(cols.at(8, 0), 1.0f);  // (1,1)
}

TEST(Im2col, Col2imAdjointProperty) {
  // <im2col(x), c> == <x, col2im(c)> for all x, c — the defining property
  // of an adjoint pair, which is exactly what backprop requires.
  Rng rng(20);
  for (int trial = 0; trial < 5; ++trial) {
    const int64_t k = 1 + trial % 3;
    const int64_t s = 1 + trial % 2;
    const int64_t p = trial % 2;
    Tensor x = Tensor::randn(Shape{2, 3, 6, 5}, rng);
    Tensor cols = im2col(x, k, s, p);
    Tensor c = Tensor::randn(cols.shape(), rng);
    Tensor folded = col2im(c, x.shape(), k, s, p);
    EXPECT_NEAR(cols.dot(c), x.dot(folded), 1e-2f)
        << "adjoint mismatch for k=" << k << " s=" << s << " p=" << p;
  }
}

TEST(Conv2d, ForwardMatchesNaiveConvolution) {
  Rng rng(21);
  Conv2d conv({.in_channels = 2, .out_channels = 3, .kernel = 3, .stride = 1,
               .padding = 1, .bias = true},
              rng);
  Tensor x = Tensor::randn(Shape{2, 2, 5, 5}, rng);
  Tensor y = conv.forward(x);
  ASSERT_EQ(y.shape(), Shape({2, 3, 5, 5}));

  // Naive direct convolution.
  const Tensor& w = conv.weight().value;  // [3, 2*3*3]
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t oc = 0; oc < 3; ++oc) {
      for (int64_t oh = 0; oh < 5; oh += 2) {
        for (int64_t ow = 0; ow < 5; ow += 3) {
          double acc = conv.bias()->value[oc];
          for (int64_t ic = 0; ic < 2; ++ic) {
            for (int64_t kh = 0; kh < 3; ++kh) {
              for (int64_t kw = 0; kw < 3; ++kw) {
                const int64_t ih = oh + kh - 1;
                const int64_t iw = ow + kw - 1;
                if (ih < 0 || ih >= 5 || iw < 0 || iw >= 5) continue;
                acc += static_cast<double>(w.at(oc, (ic * 3 + kh) * 3 + kw)) *
                       x.at(b, ic, ih, iw);
              }
            }
          }
          EXPECT_NEAR(y.at(b, oc, oh, ow), acc, 1e-4)
              << "mismatch at (" << b << "," << oc << "," << oh << "," << ow << ")";
        }
      }
    }
  }
}

TEST(Conv2d, StridedShapes) {
  Rng rng(22);
  Conv2d conv({.in_channels = 1, .out_channels = 4, .kernel = 3, .stride = 2,
               .padding = 1, .bias = false},
              rng);
  Tensor y = conv.forward(Tensor::randn(Shape{3, 1, 8, 8}, rng));
  EXPECT_EQ(y.shape(), Shape({3, 4, 4, 4}));
}

TEST(Conv2d, GradCheck3x3) {
  Rng rng(23);
  Conv2d conv({.in_channels = 2, .out_channels = 3, .kernel = 3, .stride = 1,
               .padding = 1, .bias = true},
              rng);
  Tensor x = Tensor::randn(Shape{2, 2, 4, 4}, rng);
  testing::check_gradients(conv, x);
}

TEST(Conv2d, GradCheckStride2NoBias) {
  Rng rng(24);
  Conv2d conv({.in_channels = 3, .out_channels = 2, .kernel = 3, .stride = 2,
               .padding = 1, .bias = false},
              rng);
  Tensor x = Tensor::randn(Shape{2, 3, 6, 6}, rng);
  testing::check_gradients(conv, x);
}

TEST(Conv2d, GradCheck1x1) {
  Rng rng(25);
  Conv2d conv({.in_channels = 4, .out_channels = 2, .kernel = 1, .stride = 1,
               .padding = 0, .bias = false},
              rng);
  Tensor x = Tensor::randn(Shape{2, 4, 3, 3}, rng);
  testing::check_gradients(conv, x);
}

TEST(Conv2d, GradCheck7x7Stride2) {
  Rng rng(26);
  Conv2d conv({.in_channels = 1, .out_channels = 2, .kernel = 7, .stride = 2,
               .padding = 3, .bias = false},
              rng);
  Tensor x = Tensor::randn(Shape{1, 1, 9, 9}, rng);
  testing::check_gradients(conv, x);
}

TEST(Conv2d, KfacDims) {
  Rng rng(27);
  Conv2d conv({.in_channels = 3, .out_channels = 8, .kernel = 3, .stride = 1,
               .padding = 1, .bias = false},
              rng);
  EXPECT_EQ(conv.kfac_a_dim(), 27);
  EXPECT_EQ(conv.kfac_g_dim(), 8);

  Conv2d with_bias({.in_channels = 3, .out_channels = 8, .kernel = 3,
                    .stride = 1, .padding = 1, .bias = true},
                   rng);
  EXPECT_EQ(with_bias.kfac_a_dim(), 28);
}

TEST(Conv2d, KfacAFactorAveragesOverSpatial) {
  Rng rng(28);
  Conv2d conv({.in_channels = 1, .out_channels = 1, .kernel = 1, .stride = 1,
               .padding = 0, .bias = false},
              rng);
  // Constant input 2.0: every patch is [2], so A = mean(2·2) = 4.
  Tensor x = Tensor::full(Shape{3, 1, 4, 4}, 2.0f);
  conv.forward(x);
  Tensor a = conv.kfac_a_factor();
  ASSERT_EQ(a.shape(), Shape({1, 1}));
  EXPECT_NEAR(a[0], 4.0f, 1e-5f);
}

TEST(Conv2d, KfacFactorsSymmetricPsd) {
  Rng rng(29);
  Conv2d conv({.in_channels = 2, .out_channels = 4, .kernel = 3, .stride = 1,
               .padding = 1, .bias = true},
              rng);
  Tensor x = Tensor::randn(Shape{2, 2, 5, 5}, rng);
  Tensor y = conv.forward(x);
  conv.backward(Tensor::randn(y.shape(), rng));
  Tensor a = conv.kfac_a_factor();
  Tensor g = conv.kfac_g_factor();
  EXPECT_LT(linalg::asymmetry(a), 1e-4f);
  EXPECT_LT(linalg::asymmetry(g), 1e-4f);
  // PSD: diagonal dominance of trace sign (weak check: all diagonals ≥ 0).
  for (int64_t i = 0; i < a.dim(0); ++i) EXPECT_GE(a.at(i, i), 0.0f);
  for (int64_t i = 0; i < g.dim(0); ++i) EXPECT_GE(g.at(i, i), 0.0f);
}

TEST(Conv2d, KfacGradRoundTrip) {
  Rng rng(30);
  Conv2d conv({.in_channels = 2, .out_channels = 3, .kernel = 3, .stride = 1,
               .padding = 1, .bias = true},
              rng);
  Tensor x = Tensor::randn(Shape{1, 2, 4, 4}, rng);
  Tensor y = conv.forward(x);
  conv.backward(Tensor::randn(y.shape(), rng));
  Tensor replacement = Tensor::randn(Shape{3, 19}, rng);  // 2*9+1 = 19
  conv.set_kfac_grad(replacement);
  EXPECT_TRUE(allclose(conv.kfac_grad(), replacement));
}

TEST(Conv2d, InputChannelMismatchThrows) {
  Rng rng(31);
  Conv2d conv({.in_channels = 3, .out_channels = 2}, rng);
  EXPECT_THROW(conv.forward(Tensor(Shape{1, 2, 8, 8})), Error);
}

}  // namespace
}  // namespace dkfac::nn

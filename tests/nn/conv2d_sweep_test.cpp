// Parameterized property sweep over Conv2d configurations: for every
// (kernel, stride, padding, bias) combination the layer must satisfy the
// adjoint property, the gradient check, and the K-FAC factor contracts, and
// match a position-major (row-layout) lowering bit for bit.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "grad_check.hpp"
#include "linalg/blas.hpp"
#include "linalg/eigen.hpp"
#include "nn/conv2d.hpp"

namespace dkfac::nn {
namespace {

using linalg::Trans;

/// Position-major im2col: patch rows [N·OH·OW, C·k·k], out-of-image taps 0.
Tensor row_im2col(const Tensor& x, int64_t k, int64_t s, int64_t p) {
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t oh = conv_out_size(h, k, s, p), ow = conv_out_size(w, k, s, p);
  Tensor cols(Shape{n * oh * ow, c * k * k});
  float* dst = cols.data();
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t r = 0; r < oh; ++r) {
      for (int64_t col = 0; col < ow; ++col) {
        for (int64_t ch = 0; ch < c; ++ch) {
          for (int64_t kh = 0; kh < k; ++kh) {
            for (int64_t kw = 0; kw < k; ++kw) {
              const int64_t hh = r * s - p + kh, ww = col * s - p + kw;
              const bool inside = hh >= 0 && hh < h && ww >= 0 && ww < w;
              *dst++ = inside ? x.at(b, ch, hh, ww) : 0.0f;
            }
          }
        }
      }
    }
  }
  return cols;
}

/// Adjoint of row_im2col: output positions outer, taps inner.
Tensor row_col2im(const Tensor& cols, const Shape& shape, int64_t k, int64_t s,
                  int64_t p) {
  const int64_t n = shape[0], c = shape[1], h = shape[2], w = shape[3];
  const int64_t oh = conv_out_size(h, k, s, p), ow = conv_out_size(w, k, s, p);
  Tensor img(shape);
  const float* src = cols.data();
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t r = 0; r < oh; ++r) {
      for (int64_t col = 0; col < ow; ++col) {
        for (int64_t ch = 0; ch < c; ++ch) {
          for (int64_t kh = 0; kh < k; ++kh) {
            for (int64_t kw = 0; kw < k; ++kw, ++src) {
              const int64_t hh = r * s - p + kh, ww = col * s - p + kw;
              if (hh >= 0 && hh < h && ww >= 0 && ww < w) {
                img.at(b, ch, hh, ww) += *src;
              }
            }
          }
        }
      }
    }
  }
  return img;
}

void expect_same_bits(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<size_t>(got.numel()) * sizeof(float)),
            0)
      << what << " differs from the row-layout lowering";
}

using ConvCase = std::tuple<int64_t /*kernel*/, int64_t /*stride*/,
                            int64_t /*padding*/, bool /*bias*/>;

class ConvSweep : public ::testing::TestWithParam<ConvCase> {
 protected:
  Conv2d make_conv(Rng& rng) const {
    const auto [kernel, stride, padding, bias] = GetParam();
    return Conv2d({.in_channels = 2, .out_channels = 3, .kernel = kernel,
                   .stride = stride, .padding = padding, .bias = bias},
                  rng);
  }
};

TEST_P(ConvSweep, GradCheck) {
  Rng rng(1000);
  Conv2d conv = make_conv(rng);
  Tensor x = Tensor::randn(Shape{2, 2, 7, 7}, rng);
  testing::check_gradients(conv, x, {.eps = 3e-3f, .rtol = 3e-2f, .atol = 5e-3f});
}

TEST_P(ConvSweep, OutputShapeMatchesFormula) {
  const auto [kernel, stride, padding, bias] = GetParam();
  Rng rng(1001);
  Conv2d conv = make_conv(rng);
  Tensor y = conv.forward(Tensor::randn(Shape{3, 2, 9, 9}, rng));
  const int64_t out = conv_out_size(9, kernel, stride, padding);
  EXPECT_EQ(y.shape(), Shape({3, 3, out, out}));
  (void)bias;
}

TEST_P(ConvSweep, FactorsAreSymmetricPsd) {
  Rng rng(1002);
  Conv2d conv = make_conv(rng);
  Tensor x = Tensor::randn(Shape{2, 2, 7, 7}, rng);
  Tensor y = conv.forward(x);
  conv.backward(Tensor::randn(y.shape(), rng));

  for (const Tensor& f : {conv.kfac_a_factor(), conv.kfac_g_factor()}) {
    EXPECT_LT(linalg::asymmetry(f), 1e-4f);
    // PSD: the smallest eigenvalue is non-negative up to FP noise.
    linalg::SymEig eig = linalg::sym_eig(f);
    EXPECT_GT(eig.values[0], -1e-3f);
  }
}

TEST_P(ConvSweep, KfacGradRoundTrip) {
  Rng rng(1003);
  Conv2d conv = make_conv(rng);
  Tensor x = Tensor::randn(Shape{1, 2, 7, 7}, rng);
  Tensor y = conv.forward(x);
  conv.backward(Tensor::randn(y.shape(), rng));
  Tensor replacement =
      Tensor::randn(Shape{conv.kfac_g_dim(), conv.kfac_a_dim()}, rng);
  conv.set_kfac_grad(replacement);
  EXPECT_TRUE(allclose(conv.kfac_grad(), replacement));
}

// The layer against a reference that lowers through position-major patch
// rows: patches·Wᵀ forward, grad_rowsᵀ·patches and grad_rows·W backward,
// syrk(·, kYes) factors. Every output element must come out bit-identical.
// 6 input channels put the 7×7 patch (294) past one 256-deep k-slab, and a
// batch of 3 on a 17×13 image puts N·OH·OW past it at stride 1.
TEST_P(ConvSweep, MatchesRowLayoutLoweringBitwise) {
  const auto [k, s, p, bias] = GetParam();
  Rng rng(1004);
  const int64_t oc = 5;
  Conv2d conv({.in_channels = 6, .out_channels = oc, .kernel = k, .stride = s,
               .padding = p, .bias = bias},
              rng);
  if (bias) conv.bias()->value = Tensor::randn(Shape{oc}, rng);
  const Tensor x = Tensor::randn(Shape{3, 6, 17, 13}, rng);
  const Tensor y = conv.forward(x);
  const Tensor gy = Tensor::randn(y.shape(), rng);
  const Tensor dx = conv.backward(gy);

  const int64_t n = x.dim(0), oh = y.dim(2), ow = y.dim(3);
  const int64_t rows = n * oh * ow;
  const Tensor& w = conv.weight().value;
  const Tensor patches = row_im2col(x, k, s, p);

  Tensor ref_y(y.shape());
  const Tensor out = linalg::matmul(patches, w, Trans::kNo, Trans::kYes);
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t ch = 0; ch < oc; ++ch) {
      for (int64_t pos = 0; pos < oh * ow; ++pos) {
        ref_y[(b * oc + ch) * oh * ow + pos] =
            out.at(b * oh * ow + pos, ch) +
            (bias ? conv.bias()->value[ch] : 0.0f);
      }
    }
  }

  Tensor grad_rows(Shape{rows, oc});
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t ch = 0; ch < oc; ++ch) {
      for (int64_t pos = 0; pos < oh * ow; ++pos) {
        grad_rows.at(b * oh * ow + pos, ch) = gy[(b * oc + ch) * oh * ow + pos];
      }
    }
  }
  Tensor ref_dw(w.shape());
  linalg::gemm(1.0f, grad_rows, Trans::kYes, patches, Trans::kNo, 1.0f, ref_dw);
  Tensor ref_db(Shape{oc});
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t ch = 0; ch < oc; ++ch) ref_db[ch] += grad_rows.at(i, ch);
  }
  const Tensor ref_dx =
      row_col2im(linalg::matmul(grad_rows, w), x.shape(), k, s, p);

  const int64_t d = conv.kfac_a_dim();
  Tensor augmented(Shape{rows, d});
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < patches.dim(1); ++j) augmented.at(i, j) = patches.at(i, j);
    if (bias) augmented.at(i, d - 1) = 1.0f;
  }
  Tensor ref_a(Shape{d, d});
  linalg::syrk(1.0f / static_cast<float>(rows), augmented, Trans::kYes, 0.0f, ref_a);
  Tensor ref_g(Shape{oc, oc});
  const float g_scale = static_cast<float>(n) * static_cast<float>(n) /
                        static_cast<float>(rows);
  linalg::syrk(g_scale, grad_rows, Trans::kYes, 0.0f, ref_g);

  expect_same_bits(y, ref_y, "y");
  expect_same_bits(dx, ref_dx, "dx");
  expect_same_bits(conv.weight().grad, ref_dw, "dW");
  if (bias) expect_same_bits(conv.bias()->grad, ref_db, "db");
  expect_same_bits(conv.kfac_a_factor(), ref_a, "A");
  expect_same_bits(conv.kfac_g_factor(), ref_g, "G");
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConvSweep,
    ::testing::Values(ConvCase{1, 1, 0, false}, ConvCase{1, 2, 0, true},
                      ConvCase{3, 1, 1, false}, ConvCase{3, 2, 1, true},
                      ConvCase{5, 1, 2, false}, ConvCase{5, 2, 2, true},
                      ConvCase{7, 2, 3, false}, ConvCase{3, 1, 0, true},
                      ConvCase{2, 2, 0, false}));

}  // namespace
}  // namespace dkfac::nn

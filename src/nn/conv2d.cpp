#include "nn/conv2d.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "nn/init.hpp"

namespace dkfac::nn {

using linalg::gemm;
using linalg::matmul;
using linalg::syrk;
using linalg::Trans;

int64_t conv_out_size(int64_t in, int64_t kernel, int64_t stride, int64_t padding) {
  DKFAC_CHECK(kernel >= 1 && stride >= 1 && padding >= 0);
  const int64_t out = (in + 2 * padding - kernel) / stride + 1;
  DKFAC_CHECK(out >= 1) << "conv output collapses: in=" << in << " k=" << kernel
                        << " s=" << stride << " p=" << padding;
  return out;
}

namespace {

/// Output positions [lo, hi) along one axis whose tap at kernel offset `k`
/// reads inside the input: 0 ≤ t·stride − padding + k < in.
std::pair<int64_t, int64_t> inside_range(int64_t in, int64_t out, int64_t k,
                                         int64_t stride, int64_t padding) {
  const int64_t first = padding - k;          // smallest allowed t·stride
  const int64_t last = in - 1 + padding - k;  // largest allowed t·stride
  const int64_t lo = first <= 0 ? 0 : (first + stride - 1) / stride;
  const int64_t hi = last < 0 ? 0 : std::min(out, last / stride + 1);
  return {lo, std::max(lo, hi)};
}

}  // namespace

Tensor im2col(const Tensor& x, int64_t kernel, int64_t stride, int64_t padding) {
  DKFAC_CHECK(x.ndim() == 4) << "im2col expects NCHW, got " << x.shape();
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t oh = conv_out_size(h, kernel, stride, padding);
  const int64_t ow = conv_out_size(w, kernel, stride, padding);
  const int64_t patch_dim = c * kernel * kernel;
  const int64_t plane = oh * ow;

  // Row (ch, kh, kw) is channel ch shifted by one tap: per output row, one
  // run of in-range columns; padding stays at the tensor's initial zeros.
  Tensor cols(Shape{patch_dim, n * plane});
#pragma omp parallel for collapse(2) schedule(static)
  for (int64_t row = 0; row < patch_dim; ++row) {
    for (int64_t img = 0; img < n; ++img) {
      const int64_t ch = row / (kernel * kernel);
      const int64_t kh = row / kernel % kernel;
      const int64_t kw = row % kernel;
      const auto [r_lo, r_hi] = inside_range(h, oh, kh, stride, padding);
      const auto [c_lo, c_hi] = inside_range(w, ow, kw, stride, padding);
      const float* src = x.data() + (img * c + ch) * h * w;
      float* dst = cols.data() + row * n * plane + img * plane;
      const int64_t w_off = kw - padding;
      for (int64_t r = r_lo; r < r_hi; ++r) {
        const float* in = src + (r * stride - padding + kh) * w;
        float* out = dst + r * ow;
        for (int64_t col = c_lo; col < c_hi; ++col) {
          out[col] = in[col * stride + w_off];
        }
      }
    }
  }
  return cols;
}

Tensor col2im(const Tensor& cols, Shape image_shape, int64_t kernel,
              int64_t stride, int64_t padding) {
  DKFAC_CHECK(image_shape.ndim() == 4) << "col2im target must be NCHW";
  const int64_t n = image_shape[0], c = image_shape[1], h = image_shape[2],
                w = image_shape[3];
  const int64_t oh = conv_out_size(h, kernel, stride, padding);
  const int64_t ow = conv_out_size(w, kernel, stride, padding);
  const int64_t patch_dim = c * kernel * kernel;
  const int64_t plane = oh * ow;
  DKFAC_CHECK(cols.ndim() == 2 && cols.dim(0) == patch_dim &&
              cols.dim(1) == n * plane)
      << "col2im input shape " << cols.shape() << " inconsistent with image "
      << image_shape;

  // Taps run in descending (kh, kw) order, so every pixel sums its
  // contributions in ascending output position — the order a per-position
  // scatter (output position outer, taps inner) produces.
  Tensor img(image_shape);
#pragma omp parallel for collapse(2) schedule(static)
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t ch = 0; ch < c; ++ch) {
      float* dst = img.data() + (b * c + ch) * h * w;
      for (int64_t kh = kernel - 1; kh >= 0; --kh) {
        const auto [r_lo, r_hi] = inside_range(h, oh, kh, stride, padding);
        for (int64_t kw = kernel - 1; kw >= 0; --kw) {
          const auto [c_lo, c_hi] = inside_range(w, ow, kw, stride, padding);
          const int64_t row = (ch * kernel + kh) * kernel + kw;
          const float* src = cols.data() + row * n * plane + b * plane;
          const int64_t w_off = kw - padding;
          for (int64_t r = r_lo; r < r_hi; ++r) {
            float* out = dst + (r * stride - padding + kh) * w;
            const float* in = src + r * ow;
            for (int64_t col = c_lo; col < c_hi; ++col) {
              out[col * stride + w_off] += in[col];
            }
          }
        }
      }
    }
  }
  return img;
}

Conv2d::Conv2d(Conv2dSpec spec, Rng& rng, std::string name)
    : spec_(spec),
      patch_dim_(spec.in_channels * spec.kernel * spec.kernel),
      name_(std::move(name)),
      weight_(name_ + ".weight", Tensor(Shape{spec.out_channels, patch_dim_})) {
  DKFAC_CHECK(spec.in_channels > 0 && spec.out_channels > 0)
      << name_ << ": invalid channel counts";
  kaiming_normal(weight_.value, patch_dim_, rng);
  if (spec_.bias) {
    bias_param_.emplace(name_ + ".bias", Tensor(Shape{spec.out_channels}));
  }
}

Tensor Conv2d::forward(const Tensor& x) {
  DKFAC_CHECK(x.ndim() == 4 && x.dim(1) == spec_.in_channels)
      << name_ << ": input " << x.shape() << " expected [N, " << spec_.in_channels
      << ", H, W]";
  input_shape_ = x.shape();
  patches_ = im2col(x, spec_.kernel, spec_.stride, spec_.padding);
  has_batch_ = true;
  has_grad_ = false;

  const int64_t n = x.dim(0);
  const int64_t oh = conv_out_size(x.dim(2), spec_.kernel, spec_.stride, spec_.padding);
  const int64_t ow = conv_out_size(x.dim(3), spec_.kernel, spec_.stride, spec_.padding);
  const int64_t oc = spec_.out_channels;

  // out [OC, N·OH·OW] = W · patches; each (b, oc) plane is one contiguous
  // run of it. The bias add (or + 0.0f, which turns −0 into +0) is part of
  // the layer's bits.
  Tensor out = matmul(weight_.value, patches_);
  const int64_t plane = oh * ow;
  Tensor y(Shape{n, oc, oh, ow});
#pragma omp parallel for collapse(2) schedule(static)
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t ch = 0; ch < oc; ++ch) {
      const float* src = out.data() + ch * n * plane + b * plane;
      float* dst = y.data() + (b * oc + ch) * plane;
      const float add = spec_.bias ? bias_param_->value[ch] : 0.0f;
      for (int64_t i = 0; i < plane; ++i) dst[i] = src[i] + add;
    }
  }
  return y;
}

Tensor Conv2d::backward_impl(const Tensor& grad_output) {
  DKFAC_CHECK(has_batch_) << name_ << ": backward before forward";
  const int64_t n = input_shape_[0];
  const int64_t oh = conv_out_size(input_shape_[2], spec_.kernel, spec_.stride,
                                   spec_.padding);
  const int64_t ow = conv_out_size(input_shape_[3], spec_.kernel, spec_.stride,
                                   spec_.padding);
  const int64_t oc = spec_.out_channels;
  DKFAC_CHECK(grad_output.shape() == Shape({n, oc, oh, ow}))
      << name_ << ": grad shape " << grad_output.shape();

  // Gather the NCHW grad into [OC, N·OH·OW], the forward output's layout.
  const int64_t plane = oh * ow;
  grad_rows_ = Tensor(Shape{oc, n * plane});
#pragma omp parallel for collapse(2) schedule(static)
  for (int64_t ch = 0; ch < oc; ++ch) {
    for (int64_t b = 0; b < n; ++b) {
      const float* src = grad_output.data() + (b * oc + ch) * plane;
      std::copy(src, src + plane, grad_rows_.data() + ch * n * plane + b * plane);
    }
  }
  has_grad_ = true;

  // dW += rows·patchesᵀ ; db += row sums ; dx = col2im(Wᵀ·rows).
  gemm(1.0f, grad_rows_, Trans::kNo, patches_, Trans::kYes, 1.0f, weight_.grad);
  if (spec_.bias) {
    const int64_t cols = grad_rows_.dim(1);
    for (int64_t ch = 0; ch < oc; ++ch) {
      const float* row = grad_rows_.data() + ch * cols;
      float sum = bias_param_->grad[ch];
      for (int64_t t = 0; t < cols; ++t) sum += row[t];
      bias_param_->grad[ch] = sum;
    }
  }
  Tensor grad_patches = matmul(weight_.value, grad_rows_, Trans::kYes, Trans::kNo);
  return col2im(grad_patches, input_shape_, spec_.kernel, spec_.stride,
                spec_.padding);
}

std::vector<Parameter*> Conv2d::local_parameters() {
  std::vector<Parameter*> out{&weight_};
  if (spec_.bias) out.push_back(&*bias_param_);
  return out;
}

Tensor Conv2d::kfac_a_factor() const {
  DKFAC_CHECK(has_batch_) << name_ << ": no forward pass captured for A factor";
  const int64_t cols = patches_.dim(1);  // N·OH·OW
  const int64_t d = kfac_a_dim();
  // A = E[ã ãᵀ] is a Gram matrix — syrk computes the upper triangle only
  // (~half the flops) and mirrors, so the factor is exactly symmetric.
  Tensor a(Shape{d, d});
  if (!spec_.bias) {
    syrk(1.0f / static_cast<float>(cols), patches_, Trans::kNo, 0.0f, a);
    return a;
  }
  // ã = [patch; 1]: the patch rows followed by a row of ones.
  Tensor augmented(Shape{d, cols});
  std::copy(patches_.data(), patches_.data() + patches_.numel(), augmented.data());
  std::fill(augmented.data() + patches_.numel(), augmented.data() + d * cols, 1.0f);
  syrk(1.0f / static_cast<float>(cols), augmented, Trans::kNo, 0.0f, a);
  return a;
}

Tensor Conv2d::kfac_g_factor() const {
  DKFAC_CHECK(has_grad_) << name_ << ": no backward pass captured for G factor";
  const int64_t cols = grad_rows_.dim(1);  // N·OH·OW
  const int64_t n = input_shape_[0];
  const int64_t oc = spec_.out_channels;
  // Per-sample output grads are N·g (mean loss); average the outer product
  // over batch and spatial positions: G = N²/(N·OH·OW) · rows·rowsᵀ.
  const float scale = static_cast<float>(n) * static_cast<float>(n) /
                      static_cast<float>(cols);
  Tensor g(Shape{oc, oc});
  syrk(scale, grad_rows_, Trans::kNo, 0.0f, g);
  return g;
}

Tensor Conv2d::kfac_grad() const {
  if (!spec_.bias) return weight_.grad;
  const int64_t oc = spec_.out_channels;
  Tensor combined(Shape{oc, patch_dim_ + 1});
  for (int64_t i = 0; i < oc; ++i) {
    const float* src = weight_.grad.data() + i * patch_dim_;
    float* dst = combined.data() + i * (patch_dim_ + 1);
    std::copy(src, src + patch_dim_, dst);
    dst[patch_dim_] = bias_param_->grad[i];
  }
  return combined;
}

void Conv2d::set_kfac_grad(const Tensor& grad) {
  DKFAC_CHECK(grad.ndim() == 2 && grad.dim(0) == kfac_g_dim() &&
              grad.dim(1) == kfac_a_dim())
      << name_ << ": preconditioned grad shape " << grad.shape();
  if (!spec_.bias) {
    weight_.grad = grad;
    return;
  }
  const int64_t oc = spec_.out_channels;
  for (int64_t i = 0; i < oc; ++i) {
    const float* src = grad.data() + i * (patch_dim_ + 1);
    float* dst = weight_.grad.data() + i * patch_dim_;
    std::copy(src, src + patch_dim_, dst);
    bias_param_->grad[i] = src[patch_dim_];
  }
}

}  // namespace dkfac::nn

#include "nn/batchnorm.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dkfac::nn {

BatchNorm2d::BatchNorm2d(int64_t channels, std::string name, float momentum,
                         float epsilon)
    : channels_(channels),
      name_(std::move(name)),
      momentum_(momentum),
      epsilon_(epsilon),
      gamma_(name_ + ".gamma", Tensor::ones(Shape{channels})),
      beta_(name_ + ".beta", Tensor(Shape{channels})),
      running_mean_(Shape{channels}),
      running_var_(Tensor::ones(Shape{channels})) {
  DKFAC_CHECK(channels > 0);
}

Tensor BatchNorm2d::forward(const Tensor& x) {
  DKFAC_CHECK(x.ndim() == 4 && x.dim(1) == channels_)
      << name_ << ": input " << x.shape() << " expected [N, " << channels_
      << ", H, W]";
  const int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int64_t count = n * h * w;
  DKFAC_CHECK(count > 0) << name_ << ": empty batch";

  Tensor mean(Shape{channels_});
  Tensor var(Shape{channels_});
  if (training()) {
    for (int64_t c = 0; c < channels_; ++c) {
      double sum = 0.0;
      for (int64_t b = 0; b < n; ++b) {
        const float* src = x.data() + (b * channels_ + c) * h * w;
        for (int64_t i = 0; i < h * w; ++i) sum += src[i];
      }
      mean[c] = static_cast<float>(sum / count);
    }
    for (int64_t c = 0; c < channels_; ++c) {
      double sum = 0.0;
      for (int64_t b = 0; b < n; ++b) {
        const float* src = x.data() + (b * channels_ + c) * h * w;
        for (int64_t i = 0; i < h * w; ++i) {
          const double d = src[i] - mean[c];
          sum += d * d;
        }
      }
      var[c] = static_cast<float>(sum / count);  // biased, as PyTorch normalises
    }
    // Running estimates use the unbiased variance, matching PyTorch.
    const float unbias = count > 1 ? static_cast<float>(count) / (count - 1) : 1.0f;
    for (int64_t c = 0; c < channels_; ++c) {
      running_mean_[c] = (1.0f - momentum_) * running_mean_[c] + momentum_ * mean[c];
      running_var_[c] =
          (1.0f - momentum_) * running_var_[c] + momentum_ * var[c] * unbias;
    }
  } else {
    mean = running_mean_;
    var = running_var_;
  }

  Tensor inv_std(Shape{channels_});
  for (int64_t c = 0; c < channels_; ++c) {
    inv_std[c] = 1.0f / std::sqrt(var[c] + epsilon_);
  }

  Tensor y(x.shape());
  // Only training keeps x̂, for backward; eval forms the same expression,
  // γ·((x − μ)·σ⁻¹) + β, without storing it.
  const bool keep_xhat = training();
  Tensor xhat = keep_xhat ? Tensor(x.shape()) : Tensor();
#pragma omp parallel for schedule(static)
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t c = 0; c < channels_; ++c) {
      const int64_t offset = (b * channels_ + c) * h * w;
      const float* src = x.data() + offset;
      float* xh = keep_xhat ? xhat.data() + offset : nullptr;
      float* dst = y.data() + offset;
      const float m = mean[c], is = inv_std[c], g = gamma_.value[c],
                  bt = beta_.value[c];
      for (int64_t i = 0; i < h * w; ++i) {
        const float v = (src[i] - m) * is;
        if (xh != nullptr) xh[i] = v;
        dst[i] = g * v + bt;
      }
    }
  }

  if (keep_xhat) {
    xhat_ = std::move(xhat);
    batch_mean_ = std::move(mean);
    batch_inv_std_ = std::move(inv_std);
    has_batch_ = true;
  }
  return y;
}

Tensor BatchNorm2d::backward_impl(const Tensor& grad_output) {
  DKFAC_CHECK(has_batch_) << name_ << ": backward before training forward";
  DKFAC_CHECK(grad_output.shape() == xhat_.shape())
      << name_ << ": grad shape " << grad_output.shape();
  const int64_t n = xhat_.dim(0), h = xhat_.dim(2), w = xhat_.dim(3);
  const int64_t count = n * h * w;

  // Per-channel reductions: dγ = Σ dy·x̂, dβ = Σ dy.
  Tensor sum_dy(Shape{channels_});
  Tensor sum_dy_xhat(Shape{channels_});
  for (int64_t c = 0; c < channels_; ++c) {
    double s1 = 0.0, s2 = 0.0;
    for (int64_t b = 0; b < n; ++b) {
      const float* dy = grad_output.data() + (b * channels_ + c) * h * w;
      const float* xh = xhat_.data() + (b * channels_ + c) * h * w;
      for (int64_t i = 0; i < h * w; ++i) {
        s1 += dy[i];
        s2 += static_cast<double>(dy[i]) * xh[i];
      }
    }
    sum_dy[c] = static_cast<float>(s1);
    sum_dy_xhat[c] = static_cast<float>(s2);
    gamma_.grad[c] += sum_dy_xhat[c];
    beta_.grad[c] += sum_dy[c];
  }

  // dx = γ·inv_std/count · (count·dy − Σdy − x̂·Σ(dy·x̂)).
  Tensor dx(xhat_.shape());
  const float inv_count = 1.0f / static_cast<float>(count);
#pragma omp parallel for schedule(static)
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t c = 0; c < channels_; ++c) {
      const float* dy = grad_output.data() + (b * channels_ + c) * h * w;
      const float* xh = xhat_.data() + (b * channels_ + c) * h * w;
      float* out = dx.data() + (b * channels_ + c) * h * w;
      const float k = gamma_.value[c] * batch_inv_std_[c] * inv_count;
      const float s1 = sum_dy[c], s2 = sum_dy_xhat[c];
      for (int64_t i = 0; i < h * w; ++i) {
        out[i] = k * (static_cast<float>(count) * dy[i] - s1 - xh[i] * s2);
      }
    }
  }
  return dx;
}

}  // namespace dkfac::nn

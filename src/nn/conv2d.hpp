// 2-D convolution (NCHW) via im2col + GEMM, with K-FAC factor capture.
//
// Factor shapes follow the KFC expansion (Grosse & Martens) the paper
// builds on: A is the covariance of im2col patches (dim C_in·k_h·k_w, +1
// with bias) averaged over batch and spatial positions; G is the
// covariance of per-position output gradients (dim C_out).
#pragma once

#include <optional>

#include "nn/layer.hpp"

namespace dkfac::nn {

struct Conv2dSpec {
  int64_t in_channels;
  int64_t out_channels;
  int64_t kernel = 3;
  int64_t stride = 1;
  int64_t padding = 0;
  bool bias = false;  // ResNet convs carry no bias (BatchNorm follows)
};

/// Unfolds x [N,C,H,W] into the channel-major patch matrix [C·k·k, N·OH·OW]:
/// row (c, kh, kw) holds channel c shifted by that tap, and column
/// (n, oh, ow) is one output position's patch.
Tensor im2col(const Tensor& x, int64_t kernel, int64_t stride, int64_t padding);

/// Adjoint of im2col: folds a [C·k·k, N·OH·OW] patch gradient back into the
/// image gradient [N,C,H,W].
Tensor col2im(const Tensor& cols, Shape image_shape, int64_t kernel,
              int64_t stride, int64_t padding);

/// Output spatial size for one dimension.
int64_t conv_out_size(int64_t in, int64_t kernel, int64_t stride, int64_t padding);

class Conv2d final : public Layer, public KfacCapturable {
 public:
  Conv2d(Conv2dSpec spec, Rng& rng, std::string name = "conv");

  Tensor forward(const Tensor& x) override;
  Tensor backward_impl(const Tensor& grad_output) override;

  std::vector<Parameter*> local_parameters() override;
  std::string name() const override { return name_; }

  // KfacCapturable ----------------------------------------------------------
  Tensor kfac_a_factor() const override;
  Tensor kfac_g_factor() const override;
  Tensor kfac_grad() const override;
  void set_kfac_grad(const Tensor& grad) override;
  int64_t kfac_a_dim() const override { return patch_dim_ + (spec_.bias ? 1 : 0); }
  int64_t kfac_g_dim() const override { return spec_.out_channels; }
  std::string kfac_name() const override { return name_; }

  const Conv2dSpec& spec() const { return spec_; }
  Parameter& weight() { return weight_; }
  Parameter* bias() { return spec_.bias ? &*bias_param_ : nullptr; }

 private:
  Conv2dSpec spec_;
  int64_t patch_dim_;  // C_in · k · k
  std::string name_;
  Parameter weight_;                     // [out_channels, patch_dim]
  std::optional<Parameter> bias_param_;  // [out_channels]

  // Cached batch state.
  Shape input_shape_{0};
  Tensor patches_;      // [patch_dim, N·OH·OW] from the last forward
  Tensor grad_rows_;    // [out_channels, N·OH·OW] from the last backward
  bool has_batch_ = false;
  bool has_grad_ = false;
};

}  // namespace dkfac::nn

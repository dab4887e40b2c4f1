#include "nn/activation.hpp"

#include <bit>
#include <cstdint>

#include "common/error.hpp"

namespace dkfac::nn {

// Both passes are branch-free selects over raw pointers: the mask depends
// on the data, so a per-element branch mispredicts about half the time.

Tensor ReLU::forward(const Tensor& x) {
  const int64_t count = x.numel();
  mask_.resize(static_cast<size_t>(count));
  Tensor y(x.shape());
  const float* in = x.data();
  float* out = y.data();
  uint8_t* mask = mask_.data();
  for (int64_t i = 0; i < count; ++i) {
    const bool m = in[i] > 0.0f;  // false for ±0 and NaN
    mask[i] = m;
    out[i] = m ? in[i] : 0.0f;
  }
  return y;
}

Tensor ReLU::backward_impl(const Tensor& grad_output) {
  DKFAC_CHECK(static_cast<size_t>(grad_output.numel()) == mask_.size())
      << name_ << ": backward before forward or shape changed";
  // Keep g's bits where the mask is set, +0.0 elsewhere. Written as an
  // integer select because `m ? g : 0.0f` compiles to a conditional store.
  const int64_t count = grad_output.numel();
  Tensor dx(grad_output.shape());
  const float* g = grad_output.data();
  float* out = dx.data();
  const uint8_t* mask = mask_.data();
  for (int64_t i = 0; i < count; ++i) {
    const uint32_t keep = 0u - static_cast<uint32_t>(mask[i]);
    out[i] = std::bit_cast<float>(std::bit_cast<uint32_t>(g[i]) & keep);
  }
  return dx;
}

}  // namespace dkfac::nn

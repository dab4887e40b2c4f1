#include "optim/sgd.hpp"

#include "common/error.hpp"

namespace dkfac::optim {

Sgd::Sgd(std::vector<nn::Parameter*> params, SgdOptions options)
    : params_(std::move(params)), options_(options) {
  DKFAC_CHECK(options_.lr > 0.0f) << "learning rate must be positive";
  DKFAC_CHECK(options_.momentum >= 0.0f && options_.momentum < 1.0f);
  velocity_.reserve(params_.size());
  for (const nn::Parameter* p : params_) {
    velocity_.emplace_back(p->value.shape());
  }
}

void Sgd::step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    nn::Parameter& p = *params_[i];
    Tensor& v = velocity_[i];
    const int64_t n = p.value.numel();
    for (int64_t j = 0; j < n; ++j) {
      float g = p.grad[j];
      if (options_.weight_decay != 0.0f) g += options_.weight_decay * p.value[j];
      if (options_.momentum != 0.0f) {
        v[j] = options_.momentum * v[j] + g;
        g = v[j];
      }
      p.value[j] -= options_.lr * g;
    }
  }
}

}  // namespace dkfac::optim

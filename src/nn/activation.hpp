// Elementwise activations.
#pragma once

#include "nn/layer.hpp"

namespace dkfac::nn {

class ReLU final : public Layer {
 public:
  explicit ReLU(std::string name = "relu") : name_(std::move(name)) {}

  Tensor forward(const Tensor& x) override;
  Tensor backward_impl(const Tensor& grad_output) override;

  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::vector<uint8_t> mask_;
};

}  // namespace dkfac::nn

// SGD with momentum and weight decay — the inner optimizer the paper's
// K-FAC preconditioner wraps (Eq 1; §VI uses momentum 0.9).
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace dkfac::optim {

struct SgdOptions {
  float lr = 0.1f;
  float momentum = 0.0f;
  float weight_decay = 0.0f;
};

class Sgd {
 public:
  Sgd(std::vector<nn::Parameter*> params, SgdOptions options);

  /// Applies one update from the gradients currently stored in the
  /// parameters. Gradients are NOT zeroed — call zero_grad() on the model.
  void step();

  float lr() const { return options_.lr; }
  void set_lr(float lr) { options_.lr = lr; }
  const SgdOptions& options() const { return options_; }

 private:
  std::vector<nn::Parameter*> params_;
  SgdOptions options_;
  std::vector<Tensor> velocity_;  // one buffer per parameter
};

}  // namespace dkfac::optim

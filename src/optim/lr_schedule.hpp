// Learning-rate schedules: the paper composes linear warmup over the first
// five epochs with multi-step decay (×0.1 at fixed epochs) for both SGD
// and K-FAC runs (§VI-C).
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace dkfac::optim {

/// Piecewise schedule over fractional epochs. Produces the multiplier to
/// apply to a base LR; compose with Sgd via set_lr(base * factor(epoch)).
class LrSchedule {
 public:
  struct Options {
    float base_lr = 0.1f;
    /// Linear warmup from warmup_start_factor·base to base over this many
    /// epochs; 0 disables warmup.
    float warmup_epochs = 0.0f;
    float warmup_start_factor = 0.1f;
    /// Epochs at which LR is multiplied by `decay_factor`.
    std::vector<float> decay_epochs;
    float decay_factor = 0.1f;
  };

  explicit LrSchedule(Options options) : options_(std::move(options)) {
    DKFAC_CHECK(options_.base_lr > 0.0f);
    DKFAC_CHECK(options_.warmup_epochs >= 0.0f);
    DKFAC_CHECK(options_.decay_factor > 0.0f && options_.decay_factor <= 1.0f);
    for (size_t i = 1; i < options_.decay_epochs.size(); ++i) {
      DKFAC_CHECK(options_.decay_epochs[i - 1] < options_.decay_epochs[i])
          << "decay epochs must be strictly increasing";
    }
  }

  /// Learning rate at a fractional epoch (e.g. 2.5 = halfway through epoch 2).
  float lr_at(float epoch) const {
    DKFAC_CHECK(epoch >= 0.0f);
    float factor = 1.0f;
    if (options_.warmup_epochs > 0.0f && epoch < options_.warmup_epochs) {
      const float t = epoch / options_.warmup_epochs;
      factor = options_.warmup_start_factor + (1.0f - options_.warmup_start_factor) * t;
    }
    for (float de : options_.decay_epochs) {
      if (epoch >= de) factor *= options_.decay_factor;
    }
    return options_.base_lr * factor;
  }

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace dkfac::optim

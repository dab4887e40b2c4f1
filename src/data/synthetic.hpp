// Synthetic class-conditional image datasets.
//
// Stand-in for CIFAR-10 / ImageNet-1k:
// each class has a fixed low-frequency prototype image (coarse random grid,
// bilinearly upsampled, so neighbouring pixels are strongly correlated —
// deliberately producing the ill-conditioned input covariances where
// second-order methods earn their keep); samples are prototype + Gaussian
// noise. Samples are generated deterministically on the fly from
// (seed, split, index), so datasets of any size cost no memory and every
// rank sees bit-identical data.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace dkfac::data {

struct Batch {
  Tensor images;  // [N, C, H, W]
  std::vector<int64_t> labels;

  int64_t size() const { return static_cast<int64_t>(labels.size()); }
};

struct SyntheticSpec {
  int64_t num_classes = 10;
  int64_t channels = 3;
  int64_t height = 32;
  int64_t width = 32;
  int64_t train_size = 5120;
  int64_t val_size = 1024;
  /// Within-class noise stddev relative to unit-amplitude prototypes.
  float noise = 0.8f;
  /// Prototype coarse-grid resolution (lower = smoother = more correlated).
  int64_t grid = 4;
  uint64_t seed = 1234;

  void validate() const;
};

class SyntheticImageDataset {
 public:
  enum class Split { kTrain, kVal };

  SyntheticImageDataset(SyntheticSpec spec, Split split);

  int64_t size() const { return size_; }
  const SyntheticSpec& spec() const { return spec_; }

  /// Deterministically generates sample `index` (image written into `out`
  /// at batch position `slot`). Returns the label.
  int64_t generate(int64_t index, Tensor& out, int64_t slot) const;

  /// Materialises a batch for the given sample indices.
  Batch get(const std::vector<int64_t>& indices) const;

 private:
  SyntheticSpec spec_;
  Split split_;
  int64_t size_;
  Tensor prototypes_;  // [num_classes, C, H, W]
};

}  // namespace dkfac::data

// ResNet model factory (He et al. 2016) for the CIFAR family (6n+2-layer:
// ResNet-8/14/20/32/...), plus small MLP/CNN builders used by tests and
// the quickstart example. The ImageNet family (ResNet-50/101/152) enters
// only the modelled at-scale figures, as layer shapes:
// sim::resnet_imagenet_arch.
//
// `base_width` scales every stage's channel count, which lets benches run
// faithfully-shaped but laptop-sized models.
#pragma once

#include <memory>

#include "nn/layer.hpp"

namespace dkfac::nn {

/// CIFAR-style ResNet of depth 6n+2 with basic blocks.
/// depth ∈ {8, 14, 20, 26, 32, ...}; stages use widths {w, 2w, 4w}.
LayerPtr resnet_cifar(int depth, int64_t num_classes, Rng& rng,
                      int64_t base_width = 16, int64_t in_channels = 3);

/// Two-hidden-layer MLP for unit tests and the quickstart.
LayerPtr mlp(int64_t in_features, int64_t hidden, int64_t num_classes, Rng& rng);

/// Conv → BN → ReLU → pool → conv → BN → ReLU → GAP → FC. A minimal CNN
/// exercising every layer type.
LayerPtr simple_cnn(int64_t in_channels, int64_t num_classes, Rng& rng,
                    int64_t width = 8);

}  // namespace dkfac::nn

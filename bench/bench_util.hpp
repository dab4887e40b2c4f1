// Shared helpers for the experiment-reproduction benches.
//
// Every bench binary regenerates one table or figure from the paper and
// prints (a) the paper's reported values and (b) this repository's
// reproduction, so the two can be compared line by line. Measured-training
// benches run scaled-down workloads; the at-scale benches are driven by the
// calibrated performance model.
#pragma once

#include <cstdio>
#include <string>

#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "train/trainer.hpp"

namespace dkfac::bench {

inline void print_banner(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void print_note(const std::string& note) {
  std::printf("note: %s\n", note.c_str());
}

/// The scaled-down CIFAR-10 stand-in used by the measured-training benches:
/// 16×16×3 images, 10 classes, 1280 train / 512 val samples. noise=3.0
/// puts the SGD validation plateau in the low 90s — mirroring the paper's
/// CIFAR numbers and leaving headroom to observe optimizer differences.
inline data::SyntheticSpec bench_cifar_spec() {
  data::SyntheticSpec spec;
  spec.num_classes = 10;
  spec.channels = 3;
  spec.height = spec.width = 16;
  spec.grid = 4;
  spec.train_size = 1280;
  spec.val_size = 512;
  spec.noise = 3.0f;
  spec.seed = 0xC1FA;
  return spec;
}

/// The scaled-down ImageNet stand-in: 16×16×3, 20 classes, larger split.
inline data::SyntheticSpec bench_imagenet_spec() {
  data::SyntheticSpec spec;
  spec.num_classes = 20;
  spec.channels = 3;
  spec.height = spec.width = 16;
  spec.grid = 4;
  spec.train_size = 2560;
  spec.val_size = 640;
  spec.noise = 3.0f;
  spec.seed = 0x1000;
  return spec;
}

/// ResNet-8 at width 8 — the depth-faithful, laptop-sized stand-in for the
/// paper's CIFAR ResNet-32 runs.
inline train::ModelFactory bench_resnet_factory(int depth = 8, int64_t classes = 10,
                                                int64_t width = 8) {
  return [depth, classes, width](Rng& rng) {
    return nn::resnet_cifar(depth, classes, rng, width);
  };
}

/// Baseline training config shared by the measured benches.
inline train::TrainConfig bench_train_config(int epochs, float base_lr,
                                             bool use_kfac) {
  train::TrainConfig config;
  config.epochs = epochs;
  config.local_batch = 64;
  config.lr = {.base_lr = base_lr,
               .warmup_epochs = 1.0f,
               .warmup_start_factor = 0.25f,
               .decay_epochs = {0.6f * epochs, 0.85f * epochs},
               .decay_factor = 0.1f};
  config.momentum = 0.9f;
  config.weight_decay = 5e-4f;
  config.use_kfac = use_kfac;
  if (use_kfac) {
    config.kfac.damping = 0.003f;
    config.kfac.kl_clip = 0.001f;
    config.kfac.factor_decay = 0.95f;
    config.kfac.with_update_freq(10);
  }
  return config;
}

inline const char* pct(float fraction) {
  static thread_local char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f%%", 100.0f * fraction);
  return buffer;
}

}  // namespace dkfac::bench

#include "optim/lr_schedule.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace dkfac::optim {
namespace {

TEST(LrSchedule, ConstantWithoutWarmupOrDecay) {
  LrSchedule s({.base_lr = 0.2f});
  EXPECT_FLOAT_EQ(s.lr_at(0.0f), 0.2f);
  EXPECT_FLOAT_EQ(s.lr_at(50.0f), 0.2f);
}

TEST(LrSchedule, LinearWarmupRampsToBase) {
  // The paper warms up linearly over the first 5 epochs.
  LrSchedule s({.base_lr = 1.0f, .warmup_epochs = 5.0f, .warmup_start_factor = 0.2f});
  EXPECT_FLOAT_EQ(s.lr_at(0.0f), 0.2f);
  EXPECT_FLOAT_EQ(s.lr_at(2.5f), 0.6f);
  EXPECT_FLOAT_EQ(s.lr_at(5.0f), 1.0f);
  EXPECT_FLOAT_EQ(s.lr_at(10.0f), 1.0f);
}

TEST(LrSchedule, MultiStepDecay) {
  // The paper's CIFAR K-FAC schedule: ×0.1 at epochs 35, 75, 90.
  LrSchedule s({.base_lr = 1.0f, .decay_epochs = {35, 75, 90}, .decay_factor = 0.1f});
  EXPECT_FLOAT_EQ(s.lr_at(34.9f), 1.0f);
  EXPECT_FLOAT_EQ(s.lr_at(35.0f), 0.1f);
  EXPECT_FLOAT_EQ(s.lr_at(80.0f), 0.01f);
  EXPECT_NEAR(s.lr_at(95.0f), 0.001f, 1e-9f);
}

TEST(LrSchedule, WarmupThenDecayCompose) {
  LrSchedule s({.base_lr = 2.0f,
                .warmup_epochs = 5.0f,
                .warmup_start_factor = 0.5f,
                .decay_epochs = {10.0f},
                .decay_factor = 0.1f});
  EXPECT_FLOAT_EQ(s.lr_at(0.0f), 1.0f);
  EXPECT_FLOAT_EQ(s.lr_at(7.0f), 2.0f);
  EXPECT_FLOAT_EQ(s.lr_at(12.0f), 0.2f);
}

TEST(LrSchedule, InvalidOptionsThrow) {
  EXPECT_THROW(LrSchedule({.base_lr = 0.0f}), Error);
  EXPECT_THROW(LrSchedule({.base_lr = 1.0f, .decay_epochs = {10, 5}}), Error);
  LrSchedule ok({.base_lr = 1.0f});
  EXPECT_THROW(ok.lr_at(-1.0f), Error);
}

}  // namespace
}  // namespace dkfac::optim

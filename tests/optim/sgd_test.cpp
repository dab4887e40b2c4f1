#include "optim/sgd.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "nn/linear.hpp"

namespace dkfac::optim {
namespace {

nn::Parameter make_param(std::vector<float> values) {
  const int64_t n = static_cast<int64_t>(values.size());
  nn::Parameter p("p", Tensor(Shape{n}, std::move(values)));
  return p;
}

TEST(Sgd, PlainStep) {
  nn::Parameter p = make_param({1.0f, 2.0f});
  p.grad = Tensor(Shape{2}, {0.5f, -1.0f});
  Sgd sgd({&p}, {.lr = 0.1f});
  sgd.step();
  EXPECT_FLOAT_EQ(p.value[0], 1.0f - 0.1f * 0.5f);
  EXPECT_FLOAT_EQ(p.value[1], 2.0f + 0.1f);
}

TEST(Sgd, WeightDecayAddsL2Pull) {
  nn::Parameter p = make_param({10.0f});
  p.grad = Tensor(Shape{1}, {0.0f});
  Sgd sgd({&p}, {.lr = 0.1f, .weight_decay = 0.5f});
  sgd.step();
  EXPECT_FLOAT_EQ(p.value[0], 10.0f - 0.1f * 0.5f * 10.0f);
}

TEST(Sgd, MomentumAccumulates) {
  nn::Parameter p = make_param({0.0f});
  Sgd sgd({&p}, {.lr = 1.0f, .momentum = 0.9f});
  p.grad = Tensor(Shape{1}, {1.0f});
  sgd.step();  // v=1, p = -1
  EXPECT_FLOAT_EQ(p.value[0], -1.0f);
  sgd.step();  // v = 0.9 + 1 = 1.9, p = -2.9
  EXPECT_FLOAT_EQ(p.value[0], -2.9f);
}

TEST(Sgd, LrMutableBetweenSteps) {
  nn::Parameter p = make_param({0.0f});
  Sgd sgd({&p}, {.lr = 1.0f});
  p.grad = Tensor(Shape{1}, {1.0f});
  sgd.step();
  sgd.set_lr(0.1f);
  sgd.step();
  EXPECT_FLOAT_EQ(p.value[0], -1.1f);
}

TEST(Sgd, InvalidOptionsThrow) {
  nn::Parameter p = make_param({0.0f});
  EXPECT_THROW(Sgd({&p}, {.lr = 0.0f}), Error);
  EXPECT_THROW(Sgd({&p}, {.lr = 0.1f, .momentum = 1.0f}), Error);
}

TEST(Sgd, MultipleParameterBuffersIndependent) {
  nn::Parameter a = make_param({0.0f});
  nn::Parameter b = make_param({0.0f});
  Sgd sgd({&a, &b}, {.lr = 1.0f, .momentum = 0.9f});
  a.grad = Tensor(Shape{1}, {1.0f});
  b.grad = Tensor(Shape{1}, {0.0f});
  sgd.step();
  EXPECT_FLOAT_EQ(a.value[0], -1.0f);
  EXPECT_FLOAT_EQ(b.value[0], 0.0f);  // b's velocity untouched by a's
}

}  // namespace
}  // namespace dkfac::optim

#include "nn/resnet.hpp"

#include <string>

#include "common/error.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/residual.hpp"
#include "nn/sequential.hpp"

namespace dkfac::nn {

namespace {

LayerPtr conv_bn(int64_t in, int64_t out, int64_t kernel, int64_t stride,
                 int64_t padding, Rng& rng, const std::string& name) {
  auto seq = std::make_unique<Sequential>(name);
  seq->emplace<Conv2d>(
      Conv2dSpec{.in_channels = in, .out_channels = out, .kernel = kernel,
                 .stride = stride, .padding = padding, .bias = false},
      rng, name + ".conv");
  seq->emplace<BatchNorm2d>(out, name + ".bn");
  return seq;
}

LayerPtr projection_shortcut(int64_t in, int64_t out, int64_t stride, Rng& rng,
                             const std::string& name) {
  if (stride == 1 && in == out) return nullptr;  // identity skip
  return conv_bn(in, out, /*kernel=*/1, stride, /*padding=*/0, rng, name + ".down");
}

LayerPtr basic_block(int64_t in, int64_t out, int64_t stride, Rng& rng,
                     const std::string& name) {
  auto main = std::make_unique<Sequential>(name + ".main");
  main->emplace<Conv2d>(
      Conv2dSpec{.in_channels = in, .out_channels = out, .kernel = 3,
                 .stride = stride, .padding = 1, .bias = false},
      rng, name + ".conv1");
  main->emplace<BatchNorm2d>(out, name + ".bn1");
  main->emplace<ReLU>(name + ".relu1");
  main->emplace<Conv2d>(
      Conv2dSpec{.in_channels = out, .out_channels = out, .kernel = 3,
                 .stride = 1, .padding = 1, .bias = false},
      rng, name + ".conv2");
  main->emplace<BatchNorm2d>(out, name + ".bn2");
  return std::make_unique<ResidualBlock>(
      std::move(main), projection_shortcut(in, out, stride, rng, name), name);
}

}  // namespace

LayerPtr resnet_cifar(int depth, int64_t num_classes, Rng& rng,
                      int64_t base_width, int64_t in_channels) {
  DKFAC_CHECK(depth >= 8 && (depth - 2) % 6 == 0)
      << "CIFAR ResNet depth must be 6n+2 with n>=1, got " << depth;
  const int n = (depth - 2) / 6;
  const std::string tag = "resnet" + std::to_string(depth);

  auto net = std::make_unique<Sequential>(tag);
  net->add(conv_bn(in_channels, base_width, 3, 1, 1, rng, tag + ".stem"));
  net->emplace<ReLU>(tag + ".stem.relu");

  int64_t channels = base_width;
  for (int stage = 0; stage < 3; ++stage) {
    const int64_t out = base_width << stage;
    for (int block = 0; block < n; ++block) {
      const int64_t stride = (stage > 0 && block == 0) ? 2 : 1;
      const std::string name =
          tag + ".s" + std::to_string(stage + 1) + ".b" + std::to_string(block + 1);
      net->add(basic_block(channels, out, stride, rng, name));
      channels = out;
    }
  }
  net->emplace<GlobalAvgPool>(tag + ".gap");
  net->emplace<Linear>(channels, num_classes, /*bias=*/true, rng, tag + ".fc");
  return net;
}

LayerPtr mlp(int64_t in_features, int64_t hidden, int64_t num_classes, Rng& rng) {
  auto net = std::make_unique<Sequential>("mlp");
  net->emplace<Linear>(in_features, hidden, true, rng, "mlp.fc1");
  net->emplace<ReLU>("mlp.relu1");
  net->emplace<Linear>(hidden, hidden, true, rng, "mlp.fc2");
  net->emplace<ReLU>("mlp.relu2");
  net->emplace<Linear>(hidden, num_classes, true, rng, "mlp.fc3");
  return net;
}

LayerPtr simple_cnn(int64_t in_channels, int64_t num_classes, Rng& rng,
                    int64_t width) {
  auto net = std::make_unique<Sequential>("cnn");
  net->emplace<Conv2d>(
      Conv2dSpec{.in_channels = in_channels, .out_channels = width, .kernel = 3,
                 .stride = 1, .padding = 1, .bias = true},
      rng, "cnn.conv1");
  net->emplace<BatchNorm2d>(width, "cnn.bn1");
  net->emplace<ReLU>("cnn.relu1");
  net->emplace<MaxPool2d>(2, 2, 0, "cnn.pool1");
  net->emplace<Conv2d>(
      Conv2dSpec{.in_channels = width, .out_channels = 2 * width, .kernel = 3,
                 .stride = 1, .padding = 1, .bias = true},
      rng, "cnn.conv2");
  net->emplace<BatchNorm2d>(2 * width, "cnn.bn2");
  net->emplace<ReLU>("cnn.relu2");
  net->emplace<GlobalAvgPool>("cnn.gap");
  net->emplace<Linear>(2 * width, num_classes, true, rng, "cnn.fc");
  return net;
}

}  // namespace dkfac::nn

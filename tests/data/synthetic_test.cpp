#include "data/synthetic.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace dkfac::data {
namespace {

using Split = SyntheticImageDataset::Split;

/// 3×32×32 images of 10 classes (the spec's defaults), 5120 train and
/// 1024 validation samples.
SyntheticSpec cifar_spec() {
  SyntheticSpec spec;
  spec.seed = 0xC1FA;
  return spec;
}

TEST(SyntheticSpec, InvalidSpecsThrow) {
  SyntheticSpec spec = cifar_spec();
  spec.num_classes = 1;
  EXPECT_THROW(spec.validate(), Error);
  spec = cifar_spec();
  spec.grid = 64;  // larger than image
  EXPECT_THROW(spec.validate(), Error);
  spec = cifar_spec();
  spec.noise = -1.0f;
  EXPECT_THROW(spec.validate(), Error);
}

TEST(Synthetic, DeterministicSampleGeneration) {
  SyntheticSpec spec = cifar_spec();
  SyntheticImageDataset a(spec, Split::kTrain);
  SyntheticImageDataset b(spec, Split::kTrain);
  Batch ba = a.get({0, 17, 101});
  Batch bb = b.get({0, 17, 101});
  EXPECT_TRUE(ba.images == bb.images);
  EXPECT_EQ(ba.labels, bb.labels);
}

TEST(Synthetic, LabelsAreBalanced) {
  SyntheticSpec spec = cifar_spec();
  SyntheticImageDataset ds(spec, Split::kTrain);
  std::vector<int64_t> indices(100);
  for (int64_t i = 0; i < 100; ++i) indices[static_cast<size_t>(i)] = i;
  Batch batch = ds.get(indices);
  std::vector<int> counts(10, 0);
  for (int64_t label : batch.labels) counts[static_cast<size_t>(label)]++;
  for (int c : counts) EXPECT_EQ(c, 10);
}

TEST(Synthetic, TrainAndValNoiseDiffer) {
  SyntheticSpec spec = cifar_spec();
  SyntheticImageDataset train(spec, Split::kTrain);
  SyntheticImageDataset val(spec, Split::kVal);
  Batch bt = train.get({0});
  Batch bv = val.get({0});
  EXPECT_EQ(bt.labels, bv.labels);        // same balanced labelling
  EXPECT_FALSE(bt.images == bv.images);   // different noise draws
}

TEST(Synthetic, SameClassSharesPrototype) {
  // Two same-class samples correlate strongly; cross-class much less.
  SyntheticSpec spec = cifar_spec();
  spec.noise = 0.3f;
  SyntheticImageDataset ds(spec, Split::kTrain);
  // Labels are index % 10: indices 0 and 10 are class 0; 1 is class 1.
  Batch batch = ds.get({0, 10, 1});
  const int64_t n = spec.channels * spec.height * spec.width;
  auto corr = [&](int64_t i, int64_t j) {
    double dot = 0.0, ni = 0.0, nj = 0.0;
    for (int64_t k = 0; k < n; ++k) {
      const float a = batch.images[i * n + k];
      const float b = batch.images[j * n + k];
      dot += static_cast<double>(a) * b;
      ni += static_cast<double>(a) * a;
      nj += static_cast<double>(b) * b;
    }
    return dot / std::sqrt(ni * nj);
  };
  EXPECT_GT(corr(0, 1), 0.5);   // same class
  EXPECT_LT(std::abs(corr(0, 2)), 0.5);  // different class
}

TEST(Synthetic, NeighbouringPixelsCorrelated) {
  // The bilinear upsampling must produce spatial correlation (the property
  // that makes input covariances ill-conditioned).
  SyntheticSpec spec = cifar_spec();
  spec.noise = 0.0f;  // prototypes only
  SyntheticImageDataset ds(spec, Split::kTrain);
  Batch batch = ds.get({0});
  double corr_num = 0.0, corr_den = 0.0;
  for (int64_t y = 0; y < spec.height; ++y) {
    for (int64_t x = 0; x + 1 < spec.width; ++x) {
      const float a = batch.images.at(0, 0, y, x);
      const float b = batch.images.at(0, 0, y, x + 1);
      corr_num += static_cast<double>(a) * b;
      corr_den += static_cast<double>(a) * a;
    }
  }
  EXPECT_GT(corr_num / corr_den, 0.8);
}

TEST(Synthetic, SplitSizes) {
  SyntheticSpec spec = cifar_spec();
  EXPECT_EQ(SyntheticImageDataset(spec, Split::kTrain).size(), spec.train_size);
  EXPECT_EQ(SyntheticImageDataset(spec, Split::kVal).size(), spec.val_size);
}

TEST(Synthetic, OutOfRangeIndexThrows) {
  SyntheticImageDataset ds(cifar_spec(), Split::kVal);
  EXPECT_THROW(ds.get({ds.size()}), Error);
  EXPECT_THROW(ds.get({-1}), Error);
}

TEST(Synthetic, BatchShape) {
  SyntheticSpec spec = cifar_spec();
  SyntheticImageDataset ds(spec, Split::kTrain);
  Batch batch = ds.get({1, 2, 3, 4});
  EXPECT_EQ(batch.images.shape(), Shape({4, 3, 32, 32}));
  EXPECT_EQ(batch.size(), 4);
}

}  // namespace
}  // namespace dkfac::data

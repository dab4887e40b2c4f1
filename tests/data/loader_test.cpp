#include "data/loader.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"

namespace dkfac::data {
namespace {

using Split = SyntheticImageDataset::Split;

SyntheticSpec small_spec() {
  SyntheticSpec spec = cifar10_like();
  spec.train_size = 320;
  spec.val_size = 40;
  spec.height = spec.width = 8;
  spec.grid = 2;
  return spec;
}

TEST(Loader, BatchesPerEpoch) {
  SyntheticImageDataset ds(small_spec(), Split::kTrain);
  ShardedLoader loader(ds, /*local_batch=*/16, /*rank=*/0, /*world=*/4);
  // 320 samples / (16·4) = 5 global batches.
  EXPECT_EQ(loader.batches_per_epoch(), 5);
  EXPECT_EQ(loader.global_batch(), 64);
}

TEST(Loader, TooLargeGlobalBatchThrows) {
  SyntheticImageDataset ds(small_spec(), Split::kTrain);
  EXPECT_THROW(ShardedLoader(ds, 400, 0, 1), Error);
}

TEST(Loader, ShardsAreDisjointAndCoverGlobalBatch) {
  SyntheticImageDataset ds(small_spec(), Split::kTrain);
  const int world = 4;
  // Collect every rank's samples for one epoch; no sample may repeat
  // within an epoch, and the union must be world·batches·local samples.
  std::set<std::vector<float>> seen;
  int64_t total = 0;
  for (int rank = 0; rank < world; ++rank) {
    ShardedLoader loader(ds, 8, rank, world);
    for (int64_t b = 0; b < loader.batches_per_epoch(); ++b) {
      Batch batch = loader.batch(/*epoch=*/0, b);
      const int64_t stride = batch.images.numel() / batch.size();
      for (int64_t i = 0; i < batch.size(); ++i) {
        std::vector<float> key(batch.images.data() + i * stride,
                               batch.images.data() + (i + 1) * stride);
        EXPECT_TRUE(seen.insert(std::move(key)).second)
            << "duplicate sample in epoch (rank " << rank << ")";
        ++total;
      }
    }
  }
  EXPECT_EQ(total, 4 * 10 * 8);  // world × batches × local
}

TEST(Loader, EpochsReshuffle) {
  SyntheticImageDataset ds(small_spec(), Split::kTrain);
  ShardedLoader loader(ds, 16, 0, 1);
  Batch e0 = loader.batch(0, 0);
  Batch e1 = loader.batch(1, 0);
  EXPECT_FALSE(e0.images == e1.images);
}

TEST(Loader, DeterministicAcrossInstances) {
  SyntheticImageDataset ds(small_spec(), Split::kTrain);
  ShardedLoader a(ds, 16, 1, 2);
  ShardedLoader b(ds, 16, 1, 2);
  Batch ba = a.batch(3, 1);
  Batch bb = b.batch(3, 1);
  EXPECT_TRUE(ba.images == bb.images);
  EXPECT_EQ(ba.labels, bb.labels);
}

TEST(Loader, InvalidArgsThrow) {
  SyntheticImageDataset ds(small_spec(), Split::kTrain);
  EXPECT_THROW(ShardedLoader(ds, 0, 0, 1), Error);
  EXPECT_THROW(ShardedLoader(ds, 16, 2, 2), Error);
  ShardedLoader loader(ds, 16, 0, 1);
  EXPECT_THROW(loader.batch(0, loader.batches_per_epoch()), Error);
}

}  // namespace
}  // namespace dkfac::data

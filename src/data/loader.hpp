// Sharded data loading: the data-parallel contract (paper §II-A) — every
// rank sees a disjoint shard of a globally-shuffled epoch permutation, so
// the global batch is local_batch × world_size.
#pragma once

#include <cstdint>

#include "data/synthetic.hpp"

namespace dkfac::data {

class ShardedLoader {
 public:
  /// `seed` must match across ranks so all ranks draw the same epoch
  /// permutation (and then take rank-strided slices of it).
  ShardedLoader(const SyntheticImageDataset& dataset, int64_t local_batch,
                int rank, int world_size, uint64_t seed = 7);

  /// Number of batches each rank sees per epoch (drop-last semantics on
  /// the global batch).
  int64_t batches_per_epoch() const { return batches_per_epoch_; }
  int64_t local_batch() const { return local_batch_; }
  int64_t global_batch() const { return local_batch_ * world_size_; }

  /// Pure function of (epoch, batch index) — stateless, deterministic, and
  /// identical shard layout on every rank.
  Batch batch(int64_t epoch, int64_t batch_index) const;

 private:
  const SyntheticImageDataset& dataset_;
  int64_t local_batch_;
  int rank_;
  int world_size_;
  uint64_t seed_;
  int64_t batches_per_epoch_;
};

}  // namespace dkfac::data

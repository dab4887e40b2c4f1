#include "data/loader.hpp"

#include <numeric>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "tensor/random.hpp"

namespace dkfac::data {

ShardedLoader::ShardedLoader(const SyntheticImageDataset& dataset,
                             int64_t local_batch, int rank, int world_size,
                             uint64_t seed)
    : dataset_(dataset),
      local_batch_(local_batch),
      rank_(rank),
      world_size_(world_size),
      seed_(seed) {
  DKFAC_CHECK(local_batch >= 1);
  DKFAC_CHECK(world_size >= 1 && rank >= 0 && rank < world_size);
  batches_per_epoch_ = dataset.size() / (local_batch * world_size);
  DKFAC_CHECK(batches_per_epoch_ >= 1)
      << "dataset of " << dataset.size() << " samples too small for global batch "
      << local_batch * world_size;
}

Batch ShardedLoader::batch(int64_t epoch, int64_t batch_index) const {
  DKFAC_TRACE_SCOPE_NAMED(span, "data.load");
  if (span.active()) {
    span.set_arg("samples", static_cast<uint64_t>(local_batch_));
  }
  DKFAC_CHECK(batch_index >= 0 && batch_index < batches_per_epoch_)
      << "batch index " << batch_index << " out of range";

  // Epoch permutation shared by all ranks (same seed ⊕ epoch stream).
  std::vector<int64_t> perm(static_cast<size_t>(dataset_.size()));
  std::iota(perm.begin(), perm.end(), int64_t{0});
  Rng rng(seed_, static_cast<uint64_t>(epoch) + 1);
  rng.shuffle(perm);

  // Global batch b occupies perm[b·G, (b+1)·G); this rank takes its
  // contiguous local_batch slice.
  const int64_t global = global_batch();
  const int64_t start = batch_index * global + rank_ * local_batch_;
  std::vector<int64_t> indices(perm.begin() + start,
                               perm.begin() + start + local_batch_);
  return dataset_.get(indices);
}

}  // namespace dkfac::data

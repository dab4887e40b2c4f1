#include "comm/arena.hpp"

#include <new>

#include "common/error.hpp"

namespace dkfac::comm {

namespace {

constexpr size_t kAlignFloats = Arena::kAlignBytes / sizeof(float);

/// Smallest block worth a heap round-trip. Tiny first requests (a barrier
/// token, a test slot) should not trigger a block per alloc.
constexpr size_t kMinBlockFloats = 4096;  // 16 KB

size_t round_up_to_line(size_t floats) {
  return (floats + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

}  // namespace

std::span<float> BufferView::span() const {
  if (arena_ != nullptr) {
    const uint64_t now = arena_->epoch();
    DKFAC_CHECK(now == epoch_)
        << "arena reset while view live: view carved in epoch " << epoch_
        << " (" << size_ << " floats) resolved in epoch " << now
        << " — its memory has been recycled";
  }
  return {data_, size_};
}

BufferView BufferView::subview(size_t offset, size_t count,
                               Precision precision) const {
  DKFAC_CHECK(offset + count <= size_)
      << "subview [" << offset << ", " << offset + count
      << ") exceeds view of " << size_ << " floats";
  BufferView out = *this;
  out.data_ = data_ + offset;
  out.size_ = count;
  out.precision_ = precision;
  return out;
}

BufferView Arena::alloc(size_t floats, Precision precision) {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  if (floats == 0) {
    return BufferView(nullptr, 0, precision, this, epoch);
  }
  // The bump cursor advances in whole cache lines so the NEXT allocation
  // starts aligned too; the requested view keeps its exact float count.
  const size_t take = round_up_to_line(floats);
  for (Block& block : blocks_) {
    if (block.capacity - block.used >= take) {
      float* p = block.data.get() + block.used;
      block.used += take;
      return BufferView(p, floats, precision, this, epoch);
    }
  }
  // No room: grow by one block. Sizing to at least the total already
  // reserved gives geometric growth, so a warm-up with creeping request
  // sizes settles into O(1) blocks instead of one per distinct size.
  size_t capacity = take;
  if (capacity < kMinBlockFloats) capacity = kMinBlockFloats;
  const size_t reserved_floats =
      static_cast<size_t>(stats_.bytes_reserved) / sizeof(float);
  if (capacity < reserved_floats) capacity = reserved_floats;
  capacity = round_up_to_line(capacity);
  Block block;
  block.data.reset(static_cast<float*>(
      ::operator new(capacity * sizeof(float), std::align_val_t(kAlignBytes))));
  block.capacity = capacity;
  block.used = take;
  float* p = block.data.get();
  blocks_.push_back(std::move(block));
  stats_.bytes_reserved += capacity * sizeof(float);
  stats_.block_allocs++;
  if (steady_) stats_.steady_state_allocs++;
  return BufferView(p, floats, precision, this, epoch);
}

void Arena::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  DKFAC_CHECK(pins_.load(std::memory_order_acquire) == 0)
      << "arena reset while pinned: " << pin_count()
      << " in-flight exchange(s) still own its memory";
  for (Block& block : blocks_) block.used = 0;
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

void Arena::pin() { pins_.fetch_add(1, std::memory_order_acq_rel); }

void Arena::unpin() {
  const int before = pins_.fetch_sub(1, std::memory_order_acq_rel);
  DKFAC_CHECK(before > 0) << "arena unpin without a matching pin";
}

void Arena::mark_steady_state() {
  std::lock_guard<std::mutex> lock(mutex_);
  steady_ = true;
}

ArenaStats Arena::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace dkfac::comm

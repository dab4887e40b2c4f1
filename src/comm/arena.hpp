// Pinned communication arena + precision-tagged buffer views.
//
// The per-step comm path used to be a copy chain — dense factor →
// SymmetricPacker triangle (vector) → Codec 16-bit payload (vector) →
// FusionBuffer staging chunk (vector) — with each hop both a memcpy and,
// on first touch, a heap allocation. Arena and BufferView replace that
// chain with views over ONE long-lived allocation:
//
//   Arena       cache-line-aligned, thread-safe bump allocator owning the
//               long-lived comm buffers. Blocks are never freed while the
//               arena lives; reset() just rewinds them, so steady-state
//               exchanges of a fixed shape reuse the same bytes forever —
//               zero heap allocations on the hot path (the property
//               ArenaStats::steady_state_allocs pins in CI).
//   BufferView  pointer + length + Precision tag. Every pipeline stage
//               (pack, encode, fuse, collective, decode, unpack) reads and
//               writes views in place instead of copying between
//               stage-owned buffers.
//
// Lifetime safety for in-flight views: every alloc() is stamped with the
// arena's current epoch, and reset() bumps the epoch. span() — the ONE
// door to the underlying memory — revalidates the stamp, so a view that
// outlives a reset fails loudly ("arena reset while view live") instead
// of silently aliasing recycled memory. The async overlap pipeline resolves
// views on its worker thread, so a stale view submitted there surfaces as
// the executor's sticky error at the next wait(). pin()/unpin() make the
// inverse ordering safe too: while an exchange is in flight the owner pins
// the arena and reset() throws instead of recycling memory under the
// collective.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "comm/codec.hpp"

namespace dkfac::comm {

/// Allocator-traffic counters (summed into CommStats by the trainer).
struct ArenaStats {
  uint64_t bytes_reserved = 0;      ///< capacity of all live blocks
  uint64_t block_allocs = 0;        ///< heap allocations ever made
  uint64_t steady_state_allocs = 0; ///< heap allocations after mark_steady_state()

  ArenaStats& operator+=(const ArenaStats& other) {
    bytes_reserved += other.bytes_reserved;
    block_allocs += other.block_allocs;
    steady_state_allocs += other.steady_state_allocs;
    return *this;
  }
};

class Arena;

/// A typed window into comm memory: pointer + length (transport floats) +
/// wire precision. Copyable and cheap — views are the currency every
/// stage of the factor pipeline trades in.
class BufferView {
 public:
  BufferView() = default;

  /// Unmanaged view over caller-owned storage (a tensor span, a test
  /// vector): no lifetime validation, the caller guarantees validity.
  explicit BufferView(std::span<float> data,
                      Precision precision = Precision::kFp32)
      : data_(data.data()), size_(data.size()), precision_(precision) {}

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t size_bytes() const { return size_ * sizeof(float); }
  Precision precision() const { return precision_; }
  bool arena_backed() const { return arena_ != nullptr; }

  /// The underlying memory. For arena-backed views this revalidates the
  /// epoch stamp and throws dkfac::Error if the arena was reset since the
  /// view was carved — the reset-while-live detection the overlap pipeline
  /// relies on.
  std::span<float> span() const;

  /// Raw pointer WITHOUT lifetime validation — address comparisons only
  /// (overlap rejection, contiguity detection), never dereference.
  const float* address() const { return data_; }

  /// A window into this view; the precision defaults to the parent's.
  BufferView subview(size_t offset, size_t count) const {
    return subview(offset, count, precision_);
  }
  BufferView subview(size_t offset, size_t count, Precision precision) const;

 private:
  friend class Arena;
  BufferView(float* data, size_t size, Precision precision,
             const Arena* arena, uint64_t epoch)
      : data_(data), size_(size), precision_(precision), arena_(arena),
        epoch_(epoch) {}

  float* data_ = nullptr;
  size_t size_ = 0;
  Precision precision_ = Precision::kFp32;
  const Arena* arena_ = nullptr;  ///< nullptr → unmanaged (no validation)
  uint64_t epoch_ = 0;
};

/// Cache-line-aligned, thread-safe bump allocator for long-lived comm
/// buffers. alloc()/reset()/pin() may be called from any thread (the
/// trainer thread carves slots while the async worker reads stats); the
/// memory handed out is NOT synchronised by the arena — disjoint views may
/// be used concurrently, overlapping use needs external ordering, exactly
/// like raw buffers.
class Arena {
 public:
  /// Every allocation starts on a cache-line boundary: collectives and
  /// SIMD stages never straddle a line at a view's first element, and
  /// adjacent views in one slot never false-share with views of another.
  static constexpr size_t kAlignBytes = 64;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Carves `floats` transport floats from the arena. Grows by whole
  /// blocks; a block is retained (and rewound by reset()) for the arena's
  /// lifetime, so a repeated alloc/reset cycle of fixed shape touches the
  /// heap exactly once.
  BufferView alloc(size_t floats, Precision precision = Precision::kFp32);

  /// Rewinds every block and invalidates all outstanding views (their
  /// span() will throw from now on). Throws while the arena is pinned —
  /// an in-flight exchange still owns the memory.
  void reset();

  /// Marks the arena as owned by an in-flight exchange: reset() throws
  /// until the matching unpin(). Nestable (a counter, not a flag).
  void pin();
  void unpin();
  int pin_count() const { return pins_.load(std::memory_order_acquire); }

  /// Current view-validity generation (bumped by reset()).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Declares warm-up over: block allocations from here on count as
  /// steady_state_allocs — the counter the trainer asserts stays zero.
  void mark_steady_state();

  ArenaStats stats() const;
  size_t bytes_reserved() const { return stats().bytes_reserved; }

 private:
  struct AlignedDelete {
    void operator()(float* p) const {
      ::operator delete(p, std::align_val_t(kAlignBytes));
    }
  };
  struct Block {
    std::unique_ptr<float[], AlignedDelete> data;
    size_t capacity = 0;  // floats
    size_t used = 0;      // floats, always a multiple of kAlignBytes/4
  };

  mutable std::mutex mutex_;
  std::vector<Block> blocks_;
  std::atomic<uint64_t> epoch_{1};
  std::atomic<int> pins_{0};
  bool steady_ = false;
  ArenaStats stats_;
};

}  // namespace dkfac::comm

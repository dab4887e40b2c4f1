// Fusion-buffer collectives (Horovod §II-D fidelity).
//
// Horovod accumulates small tensors into a 16–32 MB fusion buffer before
// each allreduce so every collective stays bandwidth-dominated. This
// helper gives dkfac the same behaviour: register any number of buffer
// views, then execute one chunked allreduce over them.
//
// Views may be lossless fp32 payloads or comm::Codec bit-packed fp16/bf16
// payloads (two 16-bit elements per transport float). All capacity and
// chunk accounting is done in BYTES of the transport representation — the
// one unit that stays truthful across element widths — so a half-width
// encoded payload fills exactly half the chunk budget and mixed-width
// registration sequences can never mis-chunk. Each issued collective is
// uniform in precision: a precision change forces a chunk boundary, since
// encoded and lossless payloads take different reduction paths
// (allreduce_encoded vs allreduce).
//
// Zero-copy: the buffer no longer owns a staging vector. When a chunk's
// placements are contiguous in memory — the common case now that the
// preconditioner packs every factor into one arena slot — the collective
// runs DIRECTLY on that memory: no copy in, no copy out, no allocation.
// Only a chunk assembled from scattered views is staged, through a private
// arena slot whose block is reused forever (bit_ceil-rounded requests, so
// steady-state staging never touches the heap either). Chunk boundaries
// are byte-for-byte identical to the staged path, so results are bitwise
// the same either way.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/arena.hpp"
#include "comm/communicator.hpp"

namespace dkfac::comm {

class FusionBuffer {
 public:
  /// `capacity_bytes` mirrors Horovod's fusion-buffer knob (default 32 MB).
  explicit FusionBuffer(Communicator& comm, size_t capacity_bytes = 32 << 20);

  /// Registers a view for the next allreduce. The memory must stay valid
  /// until execute() returns; arena-backed views are additionally
  /// epoch-checked at execute time, so a view whose arena was reset fails
  /// there instead of corrupting recycled memory. Views registered for one
  /// execute must not overlap each other (the reduction would double-fold
  /// the shared region) — add() rejects overlaps.
  void add(const BufferView& view);
  /// Span convenience: wraps caller-owned storage. `precision` declares the
  /// wire format: kFp32 for plain float data, kFp16/kBf16 for a Codec
  /// bit-packed payload (reduced via encode-once-fold-in-fp32).
  void add(std::span<float> view, Precision precision = Precision::kFp32);
  void add(Tensor& tensor) { add(tensor.span()); }

  /// Allreduces every registered view, packing them into buffer-sized
  /// chunks (each chunk is one collective). Clears the registration list.
  void execute(ReduceOp op);

  /// Declares warm-up over for the private staging arena: any further
  /// heap growth counts as steady_state_allocs.
  void mark_steady_state() { staging_arena_.mark_steady_state(); }
  ArenaStats arena_stats() const { return staging_arena_.stats(); }

  size_t pending_views() const { return views_.size(); }
  size_t capacity_bytes() const { return capacity_bytes_; }
  /// Collectives issued by the last execute() — the fusion ratio.
  size_t last_chunk_count() const { return last_chunk_count_; }
  /// Chunks of the last execute() that ran directly on registered memory.
  size_t last_inplace_chunks() const { return last_inplace_chunks_; }
  /// Lifetime bytes memcpy'd through the staging fallback (both
  /// directions). Zero on an all-contiguous workload — the number the
  /// zero-copy ablation pins.
  uint64_t staged_copy_bytes() const {
    return staged_copy_bytes_.load(std::memory_order_relaxed);
  }

 private:
  Communicator& comm_;
  size_t capacity_bytes_;
  std::vector<BufferView> views_;
  /// Backs chunks whose placements are scattered in memory. Reused across
  /// executes; requests are bit_ceil-rounded so the block set converges.
  Arena staging_arena_;
  struct Placement {
    size_t view;
    size_t view_offset;
    size_t chunk_offset;
    size_t count;
    float* data;  // resolved (epoch-checked) pointer into the view
  };
  std::vector<Placement> placements_;  // reused; cleared per chunk
  size_t last_chunk_count_ = 0;
  size_t last_inplace_chunks_ = 0;
  std::atomic<uint64_t> staged_copy_bytes_{0};
};

}  // namespace dkfac::comm

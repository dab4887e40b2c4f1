#include "comm/fusion.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace dkfac::comm {

namespace {
// Every payload — lossless or Codec bit-packed — travels as transport
// floats. This is the ONE place that width appears; all capacity math
// below stays in bytes.
constexpr size_t kTransportBytes = sizeof(float);

bool views_overlap(const BufferView& a, const BufferView& b) {
  const auto lo_a = reinterpret_cast<uintptr_t>(a.address());
  const auto lo_b = reinterpret_cast<uintptr_t>(b.address());
  return lo_a < lo_b + b.size_bytes() && lo_b < lo_a + a.size_bytes();
}
}  // namespace

FusionBuffer::FusionBuffer(Communicator& comm, size_t capacity_bytes)
    : comm_(comm), capacity_bytes_(capacity_bytes) {
  DKFAC_CHECK(capacity_bytes_ >= kTransportBytes) << "fusion buffer too small";
}

void FusionBuffer::add(const BufferView& view) {
  // Zero-length views carry no payload; registering them would only issue
  // empty collectives.
  if (view.empty()) return;
  for (const BufferView& pending : views_) {
    DKFAC_CHECK(!views_overlap(pending, view))
        << "fusion views overlap: a " << view.size()
        << "-float registration aliases a pending " << pending.size()
        << "-float view — the reduction would fold the shared region twice";
  }
  views_.push_back(view);
}

void FusionBuffer::add(std::span<float> view, Precision precision) {
  add(BufferView(view, precision));
}

void FusionBuffer::execute(ReduceOp op) {
  // Registrations are consumed by this call even when a collective throws
  // mid-chunk: leaving stale views (and their dangling spans) behind would
  // corrupt the next execute() after a failed step.
  struct ClearOnExit {
    std::vector<BufferView>& views;
    ~ClearOnExit() { views.clear(); }
  } guard{views_};

  last_chunk_count_ = 0;
  last_inplace_chunks_ = 0;
  size_t view_index = 0;
  size_t offset_in_view = 0;  // resume point for views larger than a chunk
  // Whole transport floats per chunk (floor): a trailing sub-element byte
  // budget can never be packed, so counting it as capacity would leave
  // room > 0 with take == 0 forever — an infinite packing loop.
  const size_t capacity_floats = capacity_bytes_ / kTransportBytes;

  while (view_index < views_.size()) {
    // Lay out up to capacity_floats as one chunk. A chunk holds views of
    // ONE precision: encoded and lossless payloads reduce through
    // different collectives, so a precision change ends the chunk exactly
    // like running out of room does.
    const Precision chunk_precision = views_[view_index].precision();
    size_t chunk_fill = 0;
    placements_.clear();
    while (view_index < views_.size() &&
           views_[view_index].precision() == chunk_precision &&
           chunk_fill < capacity_floats) {
      // span() revalidates arena-backed views here, at use time — a view
      // whose arena was reset since registration throws now, before any
      // memory is touched.
      const std::span<float> view = views_[view_index].span();
      const size_t room = capacity_floats - chunk_fill;
      const size_t take = std::min(room, view.size() - offset_in_view);
      placements_.push_back({view_index, offset_in_view, chunk_fill, take,
                             view.data() + offset_in_view});
      chunk_fill += take;
      offset_in_view += take;
      if (offset_in_view == view.size()) {
        ++view_index;
        offset_in_view = 0;
      }
    }

    // A chunk whose placements sit back-to-back in memory (one view, or
    // neighbouring slices of one arena slot) needs no staging at all —
    // the collective mutates the registered memory directly.
    bool contiguous = true;
    for (size_t i = 1; i < placements_.size(); ++i) {
      if (placements_[i - 1].data + placements_[i - 1].count !=
          placements_[i].data) {
        contiguous = false;
        break;
      }
    }

    if (contiguous) {
      const std::span<float> chunk(placements_.front().data, chunk_fill);
      if (chunk_precision == Precision::kFp32) {
        comm_.allreduce(chunk, op);
      } else {
        // Chunk boundaries sit on transport-float edges — two encoded
        // elements — and the encoded reduction is elementwise, so
        // splitting a payload across chunks changes nothing.
        comm_.allreduce_encoded(chunk, chunk_precision, op);
      }
      ++last_inplace_chunks_;
    } else {
      // Scattered placements: assemble through an arena slot. The rewind +
      // bit_ceil-rounded request means the same block serves every chunk
      // once warmed — the fallback copies, but never allocates.
      staging_arena_.reset();
      const BufferView slot =
          staging_arena_.alloc(std::bit_ceil(chunk_fill), chunk_precision);
      const std::span<float> chunk = slot.span().first(chunk_fill);
      for (const Placement& p : placements_) {
        std::copy_n(p.data, p.count, chunk.data() + p.chunk_offset);
      }
      if (chunk_precision == Precision::kFp32) {
        comm_.allreduce(chunk, op);
      } else {
        comm_.allreduce_encoded(chunk, chunk_precision, op);
      }
      for (const Placement& p : placements_) {
        std::copy_n(chunk.data() + p.chunk_offset, p.count, p.data);
      }
      staged_copy_bytes_.fetch_add(2 * chunk_fill * kTransportBytes,
                                   std::memory_order_relaxed);
    }
    ++last_chunk_count_;
  }
}

}  // namespace dkfac::comm

// comm::Arena / comm::BufferView — the zero-copy transport substrate.
//
// Pins the four contracts the factor pipeline builds on: (1) allocation
// behaviour — alignment, block reuse across reset(), the steady-state
// counter; (2) lifetime safety — span() after reset throws, reset while
// pinned throws, a stale view submitted to the overlap pipeline surfaces
// as the executor's sticky error; (3) FusionBuffer's zero-copy path —
// contiguous arena chunks reduce in place (no staged bytes), overlapping
// registrations are rejected; (4) numerics — the in-place pack→encode→
// reduce→decode→unpack pipeline is bitwise identical to the legacy
// vector-per-stage copy chain it replaced.
#include "comm/arena.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "comm/async_executor.hpp"
#include "comm/codec.hpp"
#include "comm/fusion.hpp"
#include "comm/symmetric_packer.hpp"
#include "comm/thread_comm.hpp"
#include "common/error.hpp"
#include "tensor/tensor.hpp"

namespace dkfac::comm {
namespace {

// ---- allocation behaviour ---------------------------------------------------

TEST(Arena, AllocationsAreCacheLineAligned) {
  Arena arena;
  for (size_t floats : {1u, 3u, 17u, 100u, 4097u}) {
    const BufferView view = arena.alloc(floats);
    ASSERT_EQ(view.size(), floats);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(view.span().data()) %
                  Arena::kAlignBytes,
              0u)
        << "alloc of " << floats << " floats not cache-line aligned";
  }
}

TEST(Arena, ZeroFloatAllocIsEmpty) {
  Arena arena;
  const BufferView view = arena.alloc(0);
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(arena.stats().block_allocs, 0u);
}

TEST(Arena, ResetAllocCycleOfFixedShapeReusesOneBlock) {
  Arena arena;
  const BufferView first = arena.alloc(1000);
  const float* base = first.span().data();
  for (int cycle = 0; cycle < 10; ++cycle) {
    arena.reset();
    const BufferView again = arena.alloc(1000);
    EXPECT_EQ(again.span().data(), base) << "cycle " << cycle;
  }
  EXPECT_EQ(arena.stats().block_allocs, 1u);
}

TEST(Arena, SteadyStateCounterCountsLateGrowth) {
  Arena arena;
  arena.alloc(100);
  arena.mark_steady_state();
  EXPECT_EQ(arena.stats().steady_state_allocs, 0u);
  arena.reset();
  arena.alloc(100);  // same shape — reuses the warm block
  EXPECT_EQ(arena.stats().steady_state_allocs, 0u);
  arena.alloc(1 << 20);  // forces a new block after warm-up
  EXPECT_EQ(arena.stats().steady_state_allocs, 1u);
  EXPECT_GT(arena.stats().bytes_reserved, (1u << 20) * sizeof(float));
}

TEST(Arena, StatsSumAcrossInstances) {
  Arena a;
  Arena b;
  a.alloc(10);
  b.alloc(10);
  ArenaStats total = a.stats();
  total += b.stats();
  EXPECT_EQ(total.block_allocs, 2u);
  EXPECT_EQ(total.bytes_reserved, a.stats().bytes_reserved * 2);
}

// ---- lifetime safety --------------------------------------------------------

TEST(Arena, SpanThrowsAfterReset) {
  Arena arena;
  const BufferView view = arena.alloc(16);
  EXPECT_NO_THROW(view.span());
  arena.reset();
  EXPECT_THROW(view.span(), Error);
  // A view carved after the reset is valid again.
  const BufferView fresh = arena.alloc(16);
  EXPECT_NO_THROW(fresh.span());
  EXPECT_THROW(view.span(), Error);  // the stale one stays dead
}

TEST(Arena, SubviewInheritsEpochValidation) {
  Arena arena;
  const BufferView view = arena.alloc(32);
  const BufferView sub = view.subview(8, 16);
  EXPECT_EQ(sub.span().size(), 16u);
  arena.reset();
  EXPECT_THROW(sub.span(), Error);
}

TEST(Arena, SubviewOutOfBoundsThrows) {
  Arena arena;
  const BufferView view = arena.alloc(8);
  EXPECT_THROW(view.subview(4, 8), Error);
}

TEST(Arena, ResetWhilePinnedThrows) {
  Arena arena;
  arena.alloc(8);
  arena.pin();
  EXPECT_THROW(arena.reset(), Error);
  arena.pin();  // nestable
  arena.unpin();
  EXPECT_THROW(arena.reset(), Error);
  arena.unpin();
  EXPECT_NO_THROW(arena.reset());
}

TEST(Arena, UnmanagedViewNeedsNoArena) {
  std::vector<float> storage(8, 1.0f);
  const BufferView view{std::span<float>(storage)};
  EXPECT_FALSE(view.arena_backed());
  EXPECT_EQ(view.span().data(), storage.data());
}

TEST(Arena, StaleViewSubmittedToOverlapPipelineSurfacesAtWait) {
  // The trainer-side hazard: an exchange's views are submitted to the
  // background executor, then the arena is reset before the worker ran the
  // collective. The epoch check must turn that into the executor's sticky
  // error — never a silent reduction over recycled memory.
  SelfComm comm;
  Arena arena;
  const BufferView view = arena.alloc(64);
  arena.reset();  // view is now stale
  AsyncExecutor executor(comm, 1 << 20);
  executor.submit(view, ReduceOp::kSum);
  EXPECT_THROW(executor.wait(), Error);
  EXPECT_THROW(executor.wait(), Error);  // sticky
}

// ---- FusionBuffer zero-copy path -------------------------------------------

TEST(Arena, FusionRejectsOverlappingViews) {
  SelfComm comm;
  Arena arena;
  const BufferView slot = arena.alloc(100);
  FusionBuffer fusion(comm);
  fusion.add(slot.subview(0, 60));
  EXPECT_THROW(fusion.add(slot.subview(50, 40)), Error);  // overlaps [50,60)
  EXPECT_NO_THROW(fusion.add(slot.subview(60, 40)));      // adjacent is fine
}

TEST(Arena, ContiguousArenaViewsReduceInPlaceWithoutStaging) {
  LocalGroup group(2);
  group.run([&](int rank, Communicator& comm) {
    Arena arena;
    const BufferView slot = arena.alloc(96);
    for (float& v : slot.span()) v = static_cast<float>(rank + 1);
    FusionBuffer fusion(comm, 1 << 20);
    // Back-to-back subviews of one slot — the chunk is contiguous, so the
    // collective must run directly on the arena memory.
    fusion.add(slot.subview(0, 32));
    fusion.add(slot.subview(32, 64));
    fusion.execute(ReduceOp::kSum);
    EXPECT_EQ(fusion.last_chunk_count(), 1u);
    EXPECT_EQ(fusion.last_inplace_chunks(), 1u);
    EXPECT_EQ(fusion.staged_copy_bytes(), 0u);
    EXPECT_EQ(fusion.arena_stats().block_allocs, 0u);  // staging never used
    for (float v : slot.span()) EXPECT_FLOAT_EQ(v, 3.0f);
  });
}

TEST(Arena, ScatteredViewsFallBackToStagingWithSameResult) {
  LocalGroup group(2);
  group.run([&](int rank, Communicator& comm) {
    std::vector<float> a(16, static_cast<float>(rank + 1));
    std::vector<float> b(16, static_cast<float>(2 * (rank + 1)));
    FusionBuffer fusion(comm, 1 << 20);
    fusion.add(a);
    fusion.add(b);
    fusion.execute(ReduceOp::kSum);
    EXPECT_EQ(fusion.last_inplace_chunks(), 0u);
    // 32 floats in + 32 floats out through the staging slot.
    EXPECT_EQ(fusion.staged_copy_bytes(), 2u * 32u * sizeof(float));
    for (float v : a) EXPECT_FLOAT_EQ(v, 3.0f);
    for (float v : b) EXPECT_FLOAT_EQ(v, 6.0f);
  });
}

TEST(Arena, ExecuteOnResetViewThrowsBeforeReducing) {
  SelfComm comm;
  Arena arena;
  const BufferView view = arena.alloc(8);
  FusionBuffer fusion(comm);
  fusion.add(view);
  arena.reset();
  EXPECT_THROW(fusion.execute(ReduceOp::kSum), Error);
  EXPECT_EQ(fusion.pending_views(), 0u);  // failed execute still clears
}

// ---- bitwise parity with the legacy copy chain ------------------------------

/// The pre-arena pipeline, stage-owned vector per hop: pack each symmetric
/// matrix into a packed vector, encode into a second vector, reduce THAT,
/// decode back into the packed vector, unpack. The reference the in-place
/// pipeline must match bit for bit.
std::vector<Tensor> legacy_copy_chain(const std::vector<Tensor>& factors,
                                      Precision prec, Communicator& comm) {
  std::vector<Tensor> out = factors;
  int64_t packed_total = 0;
  int64_t encoded_total = 0;
  for (const Tensor& f : out) {
    packed_total += SymmetricPacker::packed_size(f.dim(0));
    encoded_total +=
        Codec::encoded_floats(SymmetricPacker::packed_size(f.dim(0)));
  }
  std::vector<float> packed(static_cast<size_t>(packed_total));
  std::vector<float> encoded(static_cast<size_t>(encoded_total));
  int64_t p = 0;
  int64_t e = 0;
  FusionBuffer fusion(comm, 1 << 20);
  for (const Tensor& f : out) {
    const int64_t c = SymmetricPacker::packed_size(f.dim(0));
    const int64_t ec = Codec::encoded_floats(c);
    const std::span<float> tri(packed.data() + p, static_cast<size_t>(c));
    SymmetricPacker::pack(f, tri);
    const std::span<float> enc(encoded.data() + e, static_cast<size_t>(ec));
    Codec::encode(tri, enc, prec);
    fusion.add(enc, prec);
    p += c;
    e += ec;
  }
  fusion.execute(ReduceOp::kAverage);
  p = 0;
  e = 0;
  for (Tensor& f : out) {
    const int64_t c = SymmetricPacker::packed_size(f.dim(0));
    const int64_t ec = Codec::encoded_floats(c);
    Codec::decode(
        std::span<const float>(encoded.data() + e, static_cast<size_t>(ec)),
        std::span<float>(packed.data() + p, static_cast<size_t>(c)), prec);
    SymmetricPacker::unpack(
        std::span<const float>(packed.data() + p, static_cast<size_t>(c)), f);
    p += c;
    e += ec;
  }
  return out;
}

/// The arena pipeline: ONE slot holds pack + in-place encode; the
/// collective reduces slot subviews; decode expands back in place
/// (descending) and unpacks.
std::vector<Tensor> arena_pipeline(const std::vector<Tensor>& factors,
                                   Precision prec, Communicator& comm) {
  std::vector<Tensor> out = factors;
  int64_t packed_total = 0;
  for (const Tensor& f : out) {
    packed_total += SymmetricPacker::packed_size(f.dim(0));
  }
  Arena arena;
  const BufferView slot = arena.alloc(static_cast<size_t>(packed_total), prec);
  const std::span<float> mem = slot.span();
  FusionBuffer fusion(comm, 1 << 20);
  int64_t p = 0;
  int64_t e = 0;
  for (const Tensor& f : out) {
    const int64_t c = SymmetricPacker::packed_size(f.dim(0));
    const int64_t ec = Codec::encoded_floats(c);
    SymmetricPacker::pack(
        f, std::span<float>(mem.data() + p, static_cast<size_t>(c)));
    Codec::encode(std::span<const float>(mem.data() + p, static_cast<size_t>(c)),
                  mem.subspan(static_cast<size_t>(e), static_cast<size_t>(ec)),
                  prec);
    fusion.add(slot.subview(static_cast<size_t>(e), static_cast<size_t>(ec)));
    p += c;
    e += ec;
  }
  fusion.execute(ReduceOp::kAverage);
  // The encoded views are back-to-back in one slot: the reduction must have
  // run on the slot itself.
  EXPECT_EQ(fusion.staged_copy_bytes(), 0u);
  for (int64_t f = static_cast<int64_t>(out.size()) - 1; f >= 0; --f) {
    const int64_t c = SymmetricPacker::packed_size(out[static_cast<size_t>(f)].dim(0));
    const int64_t ec = Codec::encoded_floats(c);
    p -= c;
    e -= ec;
    const std::span<float> tri(mem.data() + p, static_cast<size_t>(c));
    Codec::decode(mem.subspan(static_cast<size_t>(e), static_cast<size_t>(ec)),
                  tri, prec);
    SymmetricPacker::unpack(tri, out[static_cast<size_t>(f)]);
  }
  return out;
}

std::vector<Tensor> make_rank_factors(int rank) {
  // Ragged sizes (odd triangles) so encode padding and unaligned interior
  // offsets are all in play.
  std::vector<Tensor> factors;
  for (int64_t n : {5, 8, 3}) {
    Tensor f(Shape{n, n});
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = i; j < n; ++j) {
        const float v = 0.03f * static_cast<float>(i * n + j) -
                        0.7f * static_cast<float>(rank + 1);
        f.at(i, j) = v;
        f.at(j, i) = v;
      }
    }
    factors.push_back(std::move(f));
  }
  return factors;
}

TEST(Arena, InPlacePipelineMatchesLegacyCopyChainBitwise) {
  for (Precision prec : {Precision::kFp16, Precision::kBf16}) {
    // Legacy reference, reduced across the same 3-rank group.
    std::vector<std::vector<Tensor>> legacy(3);
    {
      LocalGroup group(3);
      group.run([&](int rank, Communicator& comm) {
        legacy[static_cast<size_t>(rank)] =
            legacy_copy_chain(make_rank_factors(rank), prec, comm);
      });
    }
    std::vector<std::vector<Tensor>> inplace(3);
    {
      LocalGroup group(3);
      group.run([&](int rank, Communicator& comm) {
        inplace[static_cast<size_t>(rank)] =
            arena_pipeline(make_rank_factors(rank), prec, comm);
      });
    }
    for (int rank = 0; rank < 3; ++rank) {
      const auto& a = legacy[static_cast<size_t>(rank)];
      const auto& b = inplace[static_cast<size_t>(rank)];
      ASSERT_EQ(a.size(), b.size());
      for (size_t f = 0; f < a.size(); ++f) {
        ASSERT_EQ(a[f].numel(), b[f].numel());
        for (int64_t i = 0; i < a[f].numel(); ++i) {
          ASSERT_EQ(std::bit_cast<uint32_t>(a[f][i]),
                    std::bit_cast<uint32_t>(b[f][i]))
              << precision_name(prec) << " rank " << rank << " factor " << f
              << " element " << i;
        }
      }
    }
  }
}

TEST(Arena, InPlaceEncodeMatchesDisjointEncodeBitwise) {
  // The aliasing contract in isolation: encoding a payload into its own
  // prefix produces the same bits as encoding into a disjoint buffer, and
  // decoding expands it back exactly.
  for (Precision prec : {Precision::kFp16, Precision::kBf16}) {
    for (size_t n : {1u, 2u, 7u, 64u, 101u}) {
      std::vector<float> source(n);
      for (size_t i = 0; i < n; ++i) {
        source[i] = 0.21f * static_cast<float>(i) - 3.0f;
      }
      std::vector<float> disjoint(
          static_cast<size_t>(Codec::encoded_floats(static_cast<int64_t>(n))));
      Codec::encode(source, disjoint, prec);

      std::vector<float> inplace(source);
      const std::span<float> enc(inplace.data(), disjoint.size());
      Codec::encode(std::span<const float>(inplace.data(), n), enc, prec);
      for (size_t i = 0; i < disjoint.size(); ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(disjoint[i]),
                  std::bit_cast<uint32_t>(inplace[i]))
            << precision_name(prec) << " n=" << n << " word " << i;
      }

      // Expand back in place (decode writes backward): src is the prefix,
      // dst the full extent of the same storage.
      std::vector<float> roundtrip(inplace);
      Codec::decode(std::span<const float>(roundtrip.data(), disjoint.size()),
                    std::span<float>(roundtrip.data(), n), prec);
      for (size_t i = 0; i < n; ++i) {
        const float expected =
            Codec::decode_scalar(Codec::encode_scalar(source[i], prec), prec);
        ASSERT_EQ(std::bit_cast<uint32_t>(expected),
                  std::bit_cast<uint32_t>(roundtrip[i]))
            << precision_name(prec) << " n=" << n << " element " << i;
      }
    }
  }
}

TEST(Arena, CodecRejectsWrongDirectionOverlap) {
  std::vector<float> buf(32, 0.5f);
  // encode with dst AFTER src inside the same storage: illegal direction.
  EXPECT_THROW(Codec::encode(std::span<const float>(buf.data(), 16),
                             std::span<float>(buf.data() + 8, 8),
                             Precision::kFp16),
               Error);
  // decode with dst BEFORE src: illegal direction.
  EXPECT_THROW(Codec::decode(std::span<const float>(buf.data() + 8, 8),
                             std::span<float>(buf.data(), 16),
                             Precision::kFp16),
               Error);
}

}  // namespace
}  // namespace dkfac::comm

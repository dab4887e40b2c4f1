#include "comm/fusion.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "comm/codec.hpp"
#include "comm/thread_comm.hpp"
#include "common/error.hpp"

namespace dkfac::comm {
namespace {

TEST(FusionBuffer, SingleChunkMatchesDirectAllreduce) {
  LocalGroup group(3);
  group.run([&](int rank, Communicator& comm) {
    std::vector<float> a(10, static_cast<float>(rank));
    std::vector<float> b(20, static_cast<float>(rank * 2));
    FusionBuffer fusion(comm, 1 << 20);
    fusion.add(a);
    fusion.add(b);
    fusion.execute(ReduceOp::kSum);
    EXPECT_EQ(fusion.last_chunk_count(), 1u);
    for (float v : a) EXPECT_FLOAT_EQ(v, 0 + 1 + 2);
    for (float v : b) EXPECT_FLOAT_EQ(v, 0 + 2 + 4);
  });
}

TEST(FusionBuffer, ChunksWhenOverCapacity) {
  LocalGroup group(2);
  group.run([&](int rank, Communicator& comm) {
    // 3 views of 100 floats with a 128-float buffer → multiple chunks.
    std::vector<std::vector<float>> views(3);
    for (auto& v : views) v.assign(100, static_cast<float>(rank + 1));
    FusionBuffer fusion(comm, 128 * sizeof(float));
    for (auto& v : views) fusion.add(v);
    fusion.execute(ReduceOp::kAverage);
    EXPECT_GE(fusion.last_chunk_count(), 3u);
    for (auto& v : views) {
      for (float x : v) EXPECT_FLOAT_EQ(x, 1.5f);
    }
  });
}

TEST(FusionBuffer, ViewLargerThanBufferIsSplit) {
  LocalGroup group(2);
  group.run([&](int rank, Communicator& comm) {
    std::vector<float> big(1000);
    for (size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<float>(i) + rank;
    }
    FusionBuffer fusion(comm, 256 * sizeof(float));
    fusion.add(big);
    fusion.execute(ReduceOp::kAverage);
    EXPECT_EQ(fusion.last_chunk_count(), 4u);  // ceil(1000/256)
    for (size_t i = 0; i < big.size(); ++i) {
      ASSERT_FLOAT_EQ(big[i], static_cast<float>(i) + 0.5f) << "index " << i;
    }
  });
}

TEST(FusionBuffer, RegistrationsClearAfterExecute) {
  SelfComm comm;
  FusionBuffer fusion(comm);
  std::vector<float> v(4, 1.0f);
  fusion.add(v);
  EXPECT_EQ(fusion.pending_views(), 1u);
  fusion.execute(ReduceOp::kSum);
  EXPECT_EQ(fusion.pending_views(), 0u);
}

TEST(FusionBuffer, EmptyExecuteIsNoop) {
  SelfComm comm;
  FusionBuffer fusion(comm);
  fusion.execute(ReduceOp::kSum);
  EXPECT_EQ(fusion.last_chunk_count(), 0u);
}

TEST(FusionBuffer, TinyCapacityThrows) {
  SelfComm comm;
  EXPECT_THROW(FusionBuffer(comm, 0), Error);
}

TEST(FusionBuffer, NonMultipleOfFourCapacityFloorsToWholeElements) {
  // Regression: a capacity with a sub-element remainder (6 bytes = one
  // float + 2 dead bytes) must floor to whole transport floats. Counting
  // the remainder as room made take == 0 with room > 0 — an infinite
  // packing loop.
  LocalGroup group(2);
  group.run([&](int rank, Communicator& comm) {
    std::vector<float> v(5, static_cast<float>(rank + 1));
    FusionBuffer fusion(comm, 6);
    fusion.add(v);
    fusion.execute(ReduceOp::kSum);
    EXPECT_EQ(fusion.last_chunk_count(), 5u);  // one float per chunk
    for (float x : v) EXPECT_FLOAT_EQ(x, 3.0f);
  });
}

TEST(FusionBuffer, ExactFitViewUsesSingleChunk) {
  LocalGroup group(2);
  group.run([&](int rank, Communicator& comm) {
    // View exactly equal to the buffer capacity — must not spill into a
    // second (empty) chunk.
    std::vector<float> v(256, static_cast<float>(rank + 1));
    FusionBuffer fusion(comm, 256 * sizeof(float));
    fusion.add(v);
    fusion.execute(ReduceOp::kSum);
    EXPECT_EQ(fusion.last_chunk_count(), 1u);
    for (float x : v) EXPECT_FLOAT_EQ(x, 3.0f);
  });
}

TEST(FusionBuffer, EmptyViewsAreIgnored) {
  LocalGroup group(2);
  group.run([&](int rank, Communicator& comm) {
    std::vector<float> empty;
    std::vector<float> v(8, static_cast<float>(rank));
    FusionBuffer fusion(comm, 1 << 10);
    fusion.add(empty);
    EXPECT_EQ(fusion.pending_views(), 0u);
    fusion.add(v);
    fusion.add(std::span<float>{});
    fusion.execute(ReduceOp::kSum);
    EXPECT_EQ(fusion.last_chunk_count(), 1u);
    for (float x : v) EXPECT_FLOAT_EQ(x, 1.0f);
  });
}

/// Two-rank transport whose exchange throws the first time; after that
/// its peer contributes zeros, so a sum is the identity.
class FlakyComm final : public Communicator {
 public:
  int rank() const override { return 0; }
  int size() const override { return 2; }

 protected:
  Views exchange(std::span<const float> send) override {
    if (!failed_once_) {
      failed_once_ = true;
      throw Error("injected allreduce failure");
    }
    zeros_.assign(send.size(), 0.0f);
    views_ = {send, zeros_};
    return views_;
  }
  void end_exchange() override {}

 private:
  bool failed_once_ = false;
  std::vector<float> zeros_;
  std::vector<std::span<const float>> views_;
};

TEST(FusionBuffer, ThrowingCollectiveClearsRegistrations) {
  FlakyComm comm;
  FusionBuffer fusion(comm, 4 * sizeof(float));
  std::vector<float> a(4, 1.0f);
  std::vector<float> b(4, 2.0f);
  fusion.add(a);
  fusion.add(b);
  EXPECT_THROW(fusion.execute(ReduceOp::kSum), Error);
  // A failed step must not leave stale views behind to corrupt the next one.
  EXPECT_EQ(fusion.pending_views(), 0u);

  std::vector<float> c(2, 5.0f);
  fusion.add(c);
  fusion.execute(ReduceOp::kSum);
  EXPECT_EQ(fusion.last_chunk_count(), 1u);
  EXPECT_FLOAT_EQ(c[0], 5.0f);  // the peer contributed zeros
}

// ---- codec-encoded payloads -----------------------------------------------

/// Reference for the encode-once-reduce-in-fp32 contract: quantise each
/// rank's values, fold the decoded contributions in rank order, average,
/// re-encode. What every backend must produce, bit for bit.
std::vector<float> encoded_average_reference(
    const std::vector<std::vector<float>>& per_rank, Precision p) {
  const size_t n = per_rank.front().size();
  std::vector<float> sum(n, 0.0f);
  for (const std::vector<float>& src : per_rank) {
    for (size_t i = 0; i < n; ++i) {
      sum[i] += Codec::decode_scalar(Codec::encode_scalar(src[i], p), p);
    }
  }
  for (float& v : sum) v /= static_cast<float>(per_rank.size());
  std::vector<float> enc(static_cast<size_t>(
      Codec::encoded_floats(static_cast<int64_t>(n))));
  Codec::encode(sum, enc, p);
  return enc;
}

TEST(FusionBuffer, EncodedViewsReduceEncodeOnceFoldInFp32) {
  for (Precision p : {Precision::kFp16, Precision::kBf16}) {
    std::vector<std::vector<float>> per_rank(3);
    for (int r = 0; r < 3; ++r) {
      per_rank[static_cast<size_t>(r)].resize(11);  // odd → pad slot in play
      for (size_t i = 0; i < 11; ++i) {
        per_rank[static_cast<size_t>(r)][i] =
            0.37f * static_cast<float>(i) - 1.3f * static_cast<float>(r + 1);
      }
    }
    const std::vector<float> expected = encoded_average_reference(per_rank, p);

    LocalGroup group(3);
    group.run([&](int rank, Communicator& comm) {
      std::vector<float> enc(expected.size());
      Codec::encode(per_rank[static_cast<size_t>(rank)], enc, p);
      FusionBuffer fusion(comm, 1 << 20);
      fusion.add(enc, p);
      fusion.execute(ReduceOp::kAverage);
      EXPECT_EQ(fusion.last_chunk_count(), 1u);
      for (size_t i = 0; i < enc.size(); ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(enc[i]),
                  std::bit_cast<uint32_t>(expected[i]))
            << precision_name(p) << " word " << i << " on rank " << rank;
      }
    });
  }
}

TEST(FusionBuffer, PrecisionChangeForcesChunkBoundary) {
  LocalGroup group(2);
  group.run([&](int rank, Communicator& comm) {
    std::vector<float> plain(8, static_cast<float>(rank + 1));
    std::vector<float> source(8, static_cast<float>(rank + 1));
    std::vector<float> enc(4);
    Codec::encode(source, enc, Precision::kFp16);
    // Both fit one chunk by size, but mixed wire formats must split.
    FusionBuffer fusion(comm, 1 << 20);
    fusion.add(plain);
    fusion.add(enc, Precision::kFp16);
    fusion.execute(ReduceOp::kSum);
    EXPECT_EQ(fusion.last_chunk_count(), 2u);
    for (float v : plain) EXPECT_FLOAT_EQ(v, 3.0f);
    std::vector<float> decoded(8);
    Codec::decode(enc, decoded, Precision::kFp16);
    for (float v : decoded) EXPECT_FLOAT_EQ(v, 3.0f);  // 1+2 exact in fp16
  });
}

TEST(FusionBuffer, SplitEncodedViewMatchesUnsplitBitwise) {
  // Chunk boundaries fall on transport floats (= element pairs) and the
  // encoded reduction is elementwise, so capacity-splitting a payload must
  // not change a single bit of the result.
  std::vector<float> source(101);
  for (size_t i = 0; i < source.size(); ++i) {
    source[i] = 0.013f * static_cast<float>(i) - 0.6f;
  }
  std::vector<std::vector<float>> results(2);
  for (int variant = 0; variant < 2; ++variant) {
    const size_t capacity = variant == 0 ? (1u << 20) : 8 * sizeof(float);
    LocalGroup group(2);
    group.run([&](int rank, Communicator& comm) {
      std::vector<float> mine(source);
      for (float& v : mine) v *= static_cast<float>(rank + 1);
      std::vector<float> enc(51);
      Codec::encode(mine, enc, Precision::kBf16);
      FusionBuffer fusion(comm, capacity);
      fusion.add(enc, Precision::kBf16);
      fusion.execute(ReduceOp::kAverage);
      if (variant == 1) EXPECT_GT(fusion.last_chunk_count(), 1u);
      if (rank == 0) results[static_cast<size_t>(variant)] = enc;
    });
  }
  ASSERT_EQ(results[0].size(), results[1].size());
  for (size_t i = 0; i < results[0].size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(results[0][i]),
              std::bit_cast<uint32_t>(results[1][i]))
        << "word " << i;
  }
}

TEST(FusionBuffer, TensorOverload) {
  LocalGroup group(2);
  group.run([&](int rank, Communicator& comm) {
    Tensor t = Tensor::full(Shape{8}, static_cast<float>(rank));
    FusionBuffer fusion(comm);
    fusion.add(t);
    fusion.execute(ReduceOp::kSum);
    EXPECT_FLOAT_EQ(t[0], 1.0f);
  });
}

}  // namespace
}  // namespace dkfac::comm

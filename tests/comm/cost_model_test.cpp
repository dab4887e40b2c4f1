#include "comm/cost_model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace dkfac::comm {
namespace {

TEST(CostModel, SingleRankIsFree) {
  CostModel m;
  EXPECT_EQ(m.allreduce_time(1 << 20, 1), 0.0);
  EXPECT_EQ(m.allgather_time(1 << 20, 1), 0.0);
}

TEST(CostModel, ZeroBytesIsFree) {
  CostModel m;
  EXPECT_EQ(m.allreduce_time(0, 64), 0.0);
}

TEST(CostModel, AllreduceBandwidthTermSaturates) {
  // As p → ∞ the bandwidth term approaches 2·n/β: doubling ranks must not
  // double large-message allreduce time.
  CostModel m;
  const uint64_t bytes = 100ull << 20;
  const double t64 = m.allreduce_time(bytes, 64);
  const double t128 = m.allreduce_time(bytes, 128);
  // Bandwidth term saturates; only the latency term (≈5 ms at p=128) grows.
  EXPECT_LT(t128, 1.15 * t64);
}

TEST(CostModel, LatencyTermGrowsLinearly) {
  CostModel m;
  m.bandwidth_bytes_per_s = 1e18;  // make bandwidth negligible
  const double t8 = m.allreduce_time(4, 8);
  const double t16 = m.allreduce_time(4, 16);
  EXPECT_NEAR(t16 / t8, 15.0 / 7.0, 1e-9);
}

TEST(CostModel, MoreBytesTakeLonger) {
  CostModel m;
  EXPECT_LT(m.allreduce_time(1 << 10, 16), m.allreduce_time(1 << 24, 16));
  EXPECT_LT(m.allgather_time(1 << 10, 16), m.allgather_time(1 << 24, 16));
}

TEST(CostModel, EffectiveBandwidthAppliesEfficiency) {
  CostModel m;
  m.bandwidth_bytes_per_s = 10e9;
  m.efficiency = 0.5;
  EXPECT_DOUBLE_EQ(m.effective_bandwidth(), 5e9);
}

TEST(CostModel, InvalidRanksThrow) {
  CostModel m;
  EXPECT_THROW(m.allreduce_time(8, 0), Error);
  EXPECT_THROW(m.allgather_time(8, -1), Error);
}

TEST(CostModel, RecommendedFusionBytesWithinClampAndMonotonic) {
  CostModel m;
  constexpr uint64_t kMin = 1ull << 20;
  constexpr uint64_t kMax = 64ull << 20;
  uint64_t prev = 0;
  for (int ranks : {2, 4, 16, 64, 512}) {
    const uint64_t bytes = m.recommended_fusion_bytes(ranks);
    EXPECT_GE(bytes, kMin) << ranks;
    EXPECT_LE(bytes, kMax) << ranks;
    // Higher rank counts pay more launch latency per chunk, so the
    // recommended chunk grows (until the clamp).
    EXPECT_GE(bytes, prev) << ranks;
    prev = bytes;
  }
}

TEST(CostModel, RecommendedFusionBytesTracksLatencyBandwidthProduct) {
  CostModel fast_net;
  CostModel slow_launch = fast_net;
  slow_launch.latency_s = 10.0 * fast_net.latency_s;
  // Costlier launches demand bigger chunks to stay bandwidth-dominated.
  EXPECT_GE(slow_launch.recommended_fusion_bytes(8),
            fast_net.recommended_fusion_bytes(8));
  EXPECT_THROW(fast_net.recommended_fusion_bytes(0), Error);
  EXPECT_THROW(fast_net.recommended_fusion_bytes(8, 0.0), Error);
}

TEST(CostModel, AllgatherCheaperThanAllreduceSameBytes) {
  // Ring allgather moves half the data of ring allreduce.
  CostModel m;
  EXPECT_LT(m.allgather_time(1 << 24, 32), m.allreduce_time(1 << 24, 32));
}

TEST(CostModel, EagerBytesScaleWithFabricLatency) {
  // The launch threshold is the payload where latency and bandwidth terms
  // balance: a low-latency fabric (shared memory) must launch far earlier
  // than loopback TCP — the reason the trainer derives it per backend.
  const uint64_t thread_eager = CostModel::shared_memory().recommended_eager_bytes(4);
  const uint64_t socket_eager = CostModel::loopback_tcp().recommended_eager_bytes(4);
  EXPECT_LT(thread_eager, socket_eager);
  // Shared memory at 4 ranks lands in the tens of KB — the regime the old
  // hard-coded 32 KB threshold was tuned for.
  EXPECT_GE(thread_eager, 4ull << 10);
  EXPECT_LE(thread_eager, 128ull << 10);
  EXPECT_LE(socket_eager, 8ull << 20);  // clamp
  EXPECT_EQ(CostModel{}.recommended_eager_bytes(1), 4ull << 10);
  EXPECT_THROW(CostModel{}.recommended_eager_bytes(0), Error);
}

}  // namespace
}  // namespace dkfac::comm

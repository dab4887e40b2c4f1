#include "comm/async_executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <thread>
#include <vector>

#include "comm/codec.hpp"
#include "comm/fusion.hpp"
#include "comm/thread_comm.hpp"
#include "common/error.hpp"

namespace dkfac::comm {
namespace {

std::vector<float> iota(size_t n, float start) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = start + static_cast<float>(i);
  return v;
}

TEST(AsyncExecutor, AveragesAcrossRanks) {
  LocalGroup group(3);
  group.run([](int rank, Communicator& comm) {
    std::vector<float> a = iota(5, static_cast<float>(rank));
    std::vector<float> b = iota(7, static_cast<float>(10 * rank));
    AsyncExecutor executor(comm);
    executor.submit(a, ReduceOp::kAverage);
    executor.submit(b, ReduceOp::kAverage);
    executor.wait();
    // Average of {rank, 10*rank} over ranks 0..2 is {1, 10}.
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_FLOAT_EQ(a[i], 1.0f + static_cast<float>(i));
    }
    for (size_t i = 0; i < b.size(); ++i) {
      EXPECT_FLOAT_EQ(b[i], 10.0f + static_cast<float>(i));
    }
  });
}

TEST(AsyncExecutor, OutOfOrderLayerReadiness) {
  // Layers finish backprop output-to-input, so tensors arrive in reverse
  // registration order — and with interleaved waits mid-stream. All ranks
  // submit the same sequence, which is all the executor requires.
  LocalGroup group(2);
  group.run([](int rank, Communicator& comm) {
    std::vector<std::vector<float>> layers;
    for (int l = 0; l < 5; ++l) {
      layers.push_back(iota(static_cast<size_t>(3 + l),
                            static_cast<float>(rank * (l + 1))));
    }
    AsyncExecutor executor(comm);
    const int order[] = {4, 2, 3, 0, 1};
    for (int i = 0; i < 5; ++i) {
      executor.submit(layers[static_cast<size_t>(order[i])], ReduceOp::kAverage);
      if (i == 2) executor.wait();  // a mid-backprop sync point is legal
    }
    executor.wait();
    // Average over ranks {0,1} of rank*(l+1)+i is (l+1)/2 + i.
    for (int l = 0; l < 5; ++l) {
      for (size_t i = 0; i < layers[static_cast<size_t>(l)].size(); ++i) {
        EXPECT_FLOAT_EQ(layers[static_cast<size_t>(l)][i],
                        static_cast<float>(l + 1) / 2.0f + static_cast<float>(i))
            << "layer " << l << " elem " << i;
      }
    }
  });
}

TEST(AsyncExecutor, MatchesSynchronousFusedAllreduceBitwise) {
  // The determinism contract: chunking freedom must never change values.
  constexpr size_t kTensors = 9;
  constexpr size_t kElems = 13;
  auto fill = [](int rank, size_t t) {
    return iota(kElems, 0.123f * static_cast<float>(rank + 1) *
                            static_cast<float>(t + 1));
  };

  std::vector<std::vector<float>> sync_result(kTensors);
  {
    LocalGroup group(2);
    group.run([&](int rank, Communicator& comm) {
      std::vector<std::vector<float>> tensors;
      for (size_t t = 0; t < kTensors; ++t) tensors.push_back(fill(rank, t));
      FusionBuffer fusion(comm, /*capacity_bytes=*/64);
      for (auto& t : tensors) fusion.add(t);
      fusion.execute(ReduceOp::kAverage);
      if (rank == 0) sync_result = tensors;
    });
  }

  LocalGroup group(2);
  group.run([&](int rank, Communicator& comm) {
    std::vector<std::vector<float>> tensors;
    for (size_t t = 0; t < kTensors; ++t) tensors.push_back(fill(rank, t));
    AsyncExecutor executor(comm, /*capacity_bytes=*/64);  // forces many batches
    for (auto& t : tensors) executor.submit(t, ReduceOp::kAverage);
    executor.wait();
    if (rank == 0) {
      for (size_t t = 0; t < kTensors; ++t) {
        for (size_t i = 0; i < kElems; ++i) {
          EXPECT_EQ(tensors[t][i], sync_result[t][i]) << "t=" << t << " i=" << i;
        }
      }
    }
  });
}

TEST(AsyncExecutor, MixedPrecisionSubmissionsMatchSyncFusionBitwise) {
  // The overlap pipeline interleaves fp32 gradient views with codec-encoded
  // factor views (the compressed K-FAC pattern). Precision changes must cut
  // deterministic batch boundaries and the result must match the
  // synchronous FusionBuffer path bit for bit, however the eager threshold
  // slices the stream.
  constexpr size_t kElems = 13;
  auto fill = [](int rank, size_t t) {
    return iota(kElems, 0.123f * static_cast<float>(rank + 1) *
                            static_cast<float>(t + 1));
  };
  auto encode = [](const std::vector<float>& v) {
    std::vector<float> enc(static_cast<size_t>(
        Codec::encoded_floats(static_cast<int64_t>(v.size()))));
    Codec::encode(v, enc, Precision::kBf16);
    return enc;
  };

  // sequence: grad, grad, factor, factor, grad, factor — per test round.
  std::vector<std::vector<float>> sync_grads(3);
  std::vector<std::vector<float>> sync_factors(3);
  {
    LocalGroup group(2);
    group.run([&](int rank, Communicator& comm) {
      std::vector<std::vector<float>> grads{fill(rank, 0), fill(rank, 1),
                                            fill(rank, 4)};
      std::vector<std::vector<float>> factors{
          encode(fill(rank, 2)), encode(fill(rank, 3)), encode(fill(rank, 5))};
      FusionBuffer fusion(comm, /*capacity_bytes=*/64);
      fusion.add(grads[0]);
      fusion.add(grads[1]);
      fusion.add(factors[0], Precision::kBf16);
      fusion.add(factors[1], Precision::kBf16);
      fusion.add(grads[2]);
      fusion.add(factors[2], Precision::kBf16);
      fusion.execute(ReduceOp::kAverage);
      if (rank == 0) {
        sync_grads = grads;
        sync_factors = factors;
      }
    });
  }

  LocalGroup group(2);
  group.run([&](int rank, Communicator& comm) {
    std::vector<std::vector<float>> grads{fill(rank, 0), fill(rank, 1),
                                          fill(rank, 4)};
    std::vector<std::vector<float>> factors{
        encode(fill(rank, 2)), encode(fill(rank, 3)), encode(fill(rank, 5))};
    AsyncExecutor executor(comm, /*capacity_bytes=*/64, /*eager_bytes=*/32);
    executor.submit(grads[0], ReduceOp::kAverage);
    executor.submit(grads[1], ReduceOp::kAverage);
    executor.submit(factors[0], ReduceOp::kAverage, Precision::kBf16);
    executor.submit(factors[1], ReduceOp::kAverage, Precision::kBf16);
    executor.submit(grads[2], ReduceOp::kAverage);
    executor.submit(factors[2], ReduceOp::kAverage, Precision::kBf16);
    executor.wait();
    if (rank == 0) {
      for (size_t t = 0; t < 3; ++t) {
        for (size_t i = 0; i < kElems; ++i) {
          EXPECT_EQ(grads[t][i], sync_grads[t][i]) << "grad " << t << " i=" << i;
        }
        for (size_t i = 0; i < factors[t].size(); ++i) {
          ASSERT_EQ(std::bit_cast<uint32_t>(factors[t][i]),
                    std::bit_cast<uint32_t>(sync_factors[t][i]))
              << "factor " << t << " word " << i;
        }
      }
    }
  });
}

TEST(AsyncExecutor, MixedReduceOpsFlushBetweenBatches) {
  LocalGroup group(2);
  group.run([](int rank, Communicator& comm) {
    std::vector<float> sum{static_cast<float>(rank + 1)};
    std::vector<float> max{static_cast<float>(rank * 10)};
    AsyncExecutor executor(comm);
    executor.submit(sum, ReduceOp::kSum);
    executor.submit(max, ReduceOp::kMax);
    executor.wait();
    EXPECT_FLOAT_EQ(sum[0], 3.0f);
    EXPECT_FLOAT_EQ(max[0], 10.0f);
  });
}

TEST(AsyncExecutor, CleanShutdownWithPendingSubmissions) {
  // Destruction without wait() must drain everything that was submitted —
  // on every rank — and join cleanly (no hang, no lost reductions).
  LocalGroup group(2);
  std::vector<std::vector<float>> results(2);
  group.run([&](int rank, Communicator& comm) {
    std::vector<std::vector<float>> tensors;
    for (int t = 0; t < 6; ++t) {
      tensors.push_back(iota(4, static_cast<float>(rank + t)));
    }
    {
      AsyncExecutor executor(comm, /*capacity_bytes=*/32);
      for (auto& t : tensors) executor.submit(t, ReduceOp::kAverage);
      // No wait(): the destructor drains the queue.
    }
    // Average over ranks {0,1} of rank+t+i is t+i+0.5.
    for (int t = 0; t < 6; ++t) {
      for (size_t i = 0; i < 4; ++i) {
        EXPECT_FLOAT_EQ(tensors[static_cast<size_t>(t)][i],
                        static_cast<float>(t) + static_cast<float>(i) + 0.5f);
      }
    }
    results[static_cast<size_t>(rank)] = tensors[0];
  });
  EXPECT_EQ(results[0], results[1]);
}

TEST(AsyncExecutor, WaitWithNothingPendingReturnsImmediately) {
  SelfComm comm;
  AsyncExecutor executor(comm);
  EXPECT_NO_THROW(executor.wait());
  EXPECT_NO_THROW(executor.wait());
  EXPECT_FALSE(executor.pending());
}

TEST(AsyncExecutor, StatsCountSubmissionsAndBatches) {
  SelfComm comm;
  std::vector<float> a = iota(8, 1.0f);
  std::vector<float> b = iota(8, 2.0f);
  AsyncExecutor executor(comm, /*capacity_bytes=*/8 * sizeof(float));
  executor.submit(a, ReduceOp::kAverage);
  executor.submit(b, ReduceOp::kAverage);
  executor.wait();
  const AsyncExecutor::Stats stats = executor.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.batches, 2u);  // capacity = one tensor → one batch each
  EXPECT_GE(stats.comm_seconds, 0.0);
  EXPECT_GE(stats.wait_seconds, 0.0);
  EXPECT_GE(stats.overlap_won_seconds(), 0.0);
}

/// Two-rank transport whose peer echoes this rank's block, so an average
/// is the identity. Its exchange fails after a configurable number of
/// successes — exercises worker-thread exception propagation.
class FailingComm final : public Communicator {
 public:
  explicit FailingComm(int successes_before_failure)
      : remaining_(successes_before_failure) {}

  int rank() const override { return 0; }
  int size() const override { return 2; }

 protected:
  Views exchange(std::span<const float> send) override {
    if (remaining_-- <= 0) {
      DKFAC_CHECK(false) << "injected collective failure";
    }
    views_ = {send, send};
    return views_;
  }
  void end_exchange() override {}

 private:
  int remaining_;
  std::vector<std::span<const float>> views_;
};

TEST(AsyncExecutor, PropagatesWorkerExceptionOnWait) {
  FailingComm comm(/*successes_before_failure=*/0);
  std::vector<float> payload = iota(4, 0.0f);
  AsyncExecutor executor(comm);
  executor.submit(payload, ReduceOp::kAverage);
  EXPECT_THROW(executor.wait(), Error);
  // The error is sticky: later waits see it too, and shutdown is clean.
  EXPECT_THROW(executor.wait(), Error);
}

TEST(AsyncExecutor, ErrorDoesNotWedgeLaterSubmissions) {
  FailingComm comm(/*successes_before_failure=*/1);
  std::vector<float> a = iota(4, 0.0f);
  std::vector<float> b = iota(4, 1.0f);
  std::vector<float> c = iota(4, 2.0f);
  AsyncExecutor executor(comm, /*capacity_bytes=*/4 * sizeof(float));
  executor.submit(a, ReduceOp::kAverage);
  executor.wait();  // first batch succeeds
  executor.submit(b, ReduceOp::kAverage);
  EXPECT_THROW(executor.wait(), Error);
  // Submissions after the failure are discarded, not deadlocked.
  executor.submit(c, ReduceOp::kAverage);
  EXPECT_THROW(executor.wait(), Error);
}

TEST(AsyncExecutor, OverlapsCommunicationWithMainThreadCompute) {
  /// Two-rank transport with a slow exchange (the peer echoes this rank's
  /// block): if the pipeline really runs in the background, main-thread
  /// work proceeds while the collective sleeps, and wait() blocks for
  /// (almost) nothing afterwards.
  class SlowComm final : public Communicator {
   public:
    int rank() const override { return 0; }
    int size() const override { return 2; }

   protected:
    Views exchange(std::span<const float> send) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      views_ = {send, send};
      return views_;
    }
    void end_exchange() override {}

   private:
    std::vector<std::span<const float>> views_;
  };

  SlowComm comm;
  std::vector<float> payload = iota(16, 0.0f);
  AsyncExecutor executor(comm, /*capacity_bytes=*/32 << 20,
                         /*eager_bytes=*/sizeof(float));
  executor.submit(payload, ReduceOp::kAverage);
  // Simulate backprop continuing while the 50 ms collective runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  executor.wait();
  const AsyncExecutor::Stats stats = executor.stats();
  EXPECT_GE(stats.comm_seconds, 0.045);
  // The collective finished during the "compute": the win is most of it.
  EXPECT_GT(stats.overlap_won_seconds(), 0.025);
}

}  // namespace
}  // namespace dkfac::comm

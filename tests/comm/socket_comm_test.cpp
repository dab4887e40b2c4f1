// Multi-process SocketComm tests: every collective runs between genuinely
// separate forked processes over localhost TCP (net::run_ranks).
//
// Verification pattern: children assert with normal gtest macros (failures
// print on the shared stderr and flip the child's exit code via
// HasFailure()), and the parent asserts the aggregated exit status. The
// bitwise-parity cases check collectives against golden_* reference folds
// that replicate ThreadComm's reduction order verbatim — and one case pins
// ThreadComm itself to the same references, so agreement is transitive
// bitwise parity between the two backends.
#include "comm/net/socket_comm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "comm/net/faultnet.hpp"
#include "comm/net/launch.hpp"
#include "comm/net/rendezvous.hpp"
#include "comm/thread_comm.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"

namespace dkfac::comm::net {
namespace {

LaunchOptions fast_launch() {
  LaunchOptions options;
  options.rendezvous_timeout_s = 15.0;
  options.comm_timeout_s = 30.0;
  return options;
}

/// Runs `fn` on `n` forked ranks; a child exits nonzero iff it recorded a
/// gtest failure (visible on stderr) or returned nonzero itself.
int run_ranks_checked(int n, const std::function<void(Communicator&)>& fn) {
  return run_ranks(
      n,
      [&fn](Communicator& comm) {
        fn(comm);
        return ::testing::Test::HasFailure() ? 1 : 0;
      },
      fast_launch());
}

/// Awkward, rounding-sensitive per-rank contribution: any fold-order
/// change shows up bitwise.
std::vector<float> contribution(int rank, size_t n) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::sin(0.7f * static_cast<float>(i % 9973) +
                    1.3f * static_cast<float>(rank + 1)) *
               1e3f +
           static_cast<float>(rank);
  }
  return v;
}

/// ThreadComm::allreduce's reduction, verbatim: seed with rank 0, fold
/// ranks 1..p-1 in order, scale last for kAverage.
std::vector<float> golden_allreduce(int p, size_t n, ReduceOp op) {
  std::vector<float> result = contribution(0, n);
  for (int r = 1; r < p; ++r) {
    const std::vector<float> src = contribution(r, n);
    for (size_t i = 0; i < n; ++i) {
      result[i] = op == ReduceOp::kMax ? std::max(result[i], src[i])
                                       : result[i] + src[i];
    }
  }
  if (op == ReduceOp::kAverage) {
    const float inv = 1.0f / static_cast<float>(p);
    for (float& v : result) v *= inv;
  }
  return result;
}

void expect_bitwise_equal(std::span<const float> got,
                          std::span<const float> want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
      << what << ": payload differs bitwise";
}

TEST(SocketComm, ThreadCommMatchesGoldenFold) {
  // Pins the reference: the golden fold IS ThreadComm's reduction. The
  // socket cases below assert against the same golden values, so matching
  // them means matching ThreadComm bit for bit.
  const int p = 4;
  const size_t n = 1000;
  for (ReduceOp op : {ReduceOp::kSum, ReduceOp::kAverage, ReduceOp::kMax}) {
    LocalGroup group(p);
    const std::vector<float> want = golden_allreduce(p, n, op);
    group.run([&](int rank, Communicator& comm) {
      std::vector<float> data = contribution(rank, n);
      comm.allreduce(data, op);
      expect_bitwise_equal(data, want, "thread allreduce");
    });
  }
}

TEST(SocketComm, AllreduceBitwiseMatchesThreadCommFold) {
  const int p = 4;
  const int status = run_ranks_checked(p, [&](Communicator& comm) {
    for (const size_t n : {size_t{1}, size_t{7}, size_t{4096}}) {
      for (ReduceOp op : {ReduceOp::kSum, ReduceOp::kAverage, ReduceOp::kMax}) {
        std::vector<float> data = contribution(comm.rank(), n);
        comm.allreduce(data, op);
        expect_bitwise_equal(data, golden_allreduce(p, n, op),
                             "socket allreduce (small)");
      }
    }
  });
  EXPECT_EQ(status, 0);
}

TEST(SocketComm, PipelinedRingAllreduceBitwiseMatches) {
  // 6 MB payload: the cost model must pick the pipelined ring, and the
  // chain fold must still reproduce ThreadComm's rank order bit for bit.
  const int p = 4;
  const size_t n = 1536 * 1024;
  const int status = run_ranks_checked(p, [&](Communicator& comm) {
    auto& sock = dynamic_cast<SocketComm&>(comm);
    EXPECT_EQ(sock.allreduce_algorithm(n * sizeof(float)),
              SocketComm::AllreduceAlgo::kPipelinedRing);
    EXPECT_EQ(sock.allreduce_algorithm(1024),
              SocketComm::AllreduceAlgo::kRingCirculation);
    std::vector<float> data = contribution(comm.rank(), n);
    comm.allreduce(data, ReduceOp::kAverage);
    expect_bitwise_equal(data, golden_allreduce(p, n, ReduceOp::kAverage),
                         "socket allreduce (pipelined)");
  });
  EXPECT_EQ(status, 0);
}

TEST(SocketComm, AllgatherVariableSizesMatchesThreadOrder) {
  // Rank r contributes r+1 elements — the ragged decomposition-gather
  // shape. Output must concatenate in rank order, like ThreadComm.
  const int p = 4;
  const int status = run_ranks_checked(p, [&](Communicator& comm) {
    const std::vector<float> send =
        contribution(comm.rank(), static_cast<size_t>(comm.rank()) + 1);
    std::vector<float> got;
    comm.allgather_into(send, got);
    std::vector<float> want;
    for (int r = 0; r < p; ++r) {
      const std::vector<float> block =
          contribution(r, static_cast<size_t>(r) + 1);
      want.insert(want.end(), block.begin(), block.end());
    }
    expect_bitwise_equal(got, want, "socket allgather");
  });
  EXPECT_EQ(status, 0);
}

TEST(SocketComm, BroadcastFromEachRoot) {
  const int p = 4;
  const int status = run_ranks_checked(p, [&](Communicator& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<float> data = comm.rank() == root
                                    ? contribution(root, 129)
                                    : std::vector<float>(129, -1.0f);
      comm.broadcast(data, root);
      expect_bitwise_equal(data, contribution(root, 129), "socket broadcast");
    }
  });
  EXPECT_EQ(status, 0);
}

TEST(SocketComm, MixedCollectiveSequence) {
  const int p = 4;
  const int status = run_ranks_checked(p, [&](Communicator& comm) {
    for (int iter = 0; iter < 20; ++iter) {
      std::vector<float> g{static_cast<float>(comm.rank() + iter)};
      comm.allreduce(g, ReduceOp::kAverage);
      std::vector<float> gathered;
      comm.allgather_into(g, gathered);
      ASSERT_EQ(gathered.size(), static_cast<size_t>(p));
      for (float v : gathered) EXPECT_EQ(v, g[0]);
      comm.broadcast(g, iter % p);
      comm.barrier();
    }
  });
  EXPECT_EQ(status, 0);
}

TEST(SocketComm, StatsFollowPayloadAndWireConventions) {
  const int p = 2;
  const int status = run_ranks_checked(p, [&](Communicator& comm) {
    comm.reset_stats();
    std::vector<float> data(100, 1.0f);
    comm.allreduce(data, ReduceOp::kSum);
    std::vector<float> gathered;
    comm.allgather_into(std::span<const float>(data.data(), 10), gathered);
    comm.broadcast(data, /*root=*/0);
    const CommStats& stats = comm.stats();
    EXPECT_EQ(stats.allreduce_calls, 1u);
    EXPECT_EQ(stats.allreduce_bytes, 100u * sizeof(float));
    EXPECT_EQ(stats.allgather_bytes, 10u * sizeof(float));
    // Broadcast payload is counted at the root only (the cross-backend
    // payload-contribution convention).
    EXPECT_EQ(stats.broadcast_bytes,
              comm.rank() == 0 ? 100u * sizeof(float) : 0u);
    // Real wire traffic includes frame headers, so it strictly exceeds
    // the payload this rank shipped.
    EXPECT_GT(stats.wire_sent_bytes, stats.allreduce_bytes);
    EXPECT_GT(stats.wire_recv_bytes, 0u);
  });
  EXPECT_EQ(status, 0);
}

TEST(SocketComm, RendezvousHonoursRequestedRanks) {
  // In-process rendezvous: two clients request each other's "natural"
  // order swapped; the server must honour the explicit requests.
  RendezvousServer server;
  std::thread serving([&] { server.serve(2, 5.0); });
  RendezvousInfo a;
  std::thread client_a([&] {
    a = rendezvous_connect("127.0.0.1", server.port(), 2, /*requested_rank=*/1,
                           /*data_port=*/1111, 5.0);
  });
  const RendezvousInfo b = rendezvous_connect("127.0.0.1", server.port(), 2,
                                              /*requested_rank=*/0,
                                              /*data_port=*/2222, 5.0);
  client_a.join();
  serving.join();
  EXPECT_EQ(a.rank, 1);
  EXPECT_EQ(b.rank, 0);
  ASSERT_EQ(a.peer_ports.size(), 2u);
  EXPECT_EQ(a.peer_ports[0], 2222);
  EXPECT_EQ(a.peer_ports[1], 1111);
  EXPECT_EQ(b.peer_ports, a.peer_ports);
}

TEST(SocketComm, RendezvousWorldSizeMismatchRejected) {
  RendezvousServer server;
  std::thread client([&] {
    EXPECT_THROW(rendezvous_connect("127.0.0.1", server.port(), /*world=*/3,
                                    -1, 1234, 5.0),
                 Error);
  });
  EXPECT_THROW(server.serve(/*world_size=*/2, 5.0), Error);
  client.join();
}

TEST(SocketComm, RendezvousTimeoutFailsFastNotHangs) {
  RendezvousServer server;
  const auto start = Clock::now();
  EXPECT_THROW(server.serve(/*world_size=*/2, /*timeout_s=*/0.3), Error);
  EXPECT_LT(seconds_since(start), 3.0);
}

TEST(SocketComm, WorkerTimeoutWhenGroupIncomplete) {
  // One worker of an expected pair shows up: the server times out, and the
  // worker's wait for its welcome times out — both as clean errors.
  RendezvousServer server;
  std::thread serving([&] {
    EXPECT_THROW(server.serve(/*world_size=*/2, /*timeout_s=*/1.0), Error);
  });
  const auto start = Clock::now();
  SocketOptions options;
  options.rendezvous_port = server.port();
  options.world_size = 2;
  options.timeout_s = 0.5;
  EXPECT_THROW(SocketComm comm(options), Error);
  EXPECT_LT(seconds_since(start), 3.0);
  serving.join();
}

TEST(SocketComm, ConnectToDeadServerFailsFast) {
  // Grab an ephemeral port, then close the listener: connecting must fail
  // within the deadline, not hang.
  uint16_t dead_port;
  {
    ListenSocket probe;
    dead_port = probe.port();
  }
  SocketOptions options;
  options.rendezvous_port = dead_port;
  options.world_size = 2;
  options.timeout_s = 0.4;
  const auto start = Clock::now();
  EXPECT_THROW(SocketComm comm(options), Error);
  EXPECT_LT(seconds_since(start), 3.0);
}

TEST(SocketComm, PeerDeathProducesCleanErrorNotHang) {
  // Rank 1 exits mid-run; rank 0's next collective must throw a dkfac
  // Error (EOF / reset on the wire), not wedge or die on SIGPIPE.
  const auto start = Clock::now();
  const int status = run_ranks(
      2,
      [](Communicator& comm) {
        if (comm.rank() == 1) return 0;  // dies: sockets close on return
        std::vector<float> data(256, 1.0f);
        try {
          // Peer teardown races the collective; a second round guarantees
          // the death is observed even if the first exchange slipped by.
          comm.allreduce(data, ReduceOp::kSum);
          comm.allreduce(data, ReduceOp::kSum);
        } catch (const Error&) {
          return 0;  // clean, typed failure — exactly what we want
        }
        return 7;  // both collectives succeeded against a dead peer
      },
      fast_launch());
  EXPECT_EQ(status, 0);
  EXPECT_LT(seconds_since(start), 20.0);
}

TEST(SocketComm, FailedSendBlamesItsSendPeer) {
  // On 3 ranks a ring-circulation step has rank 1 send to rank 2 while it
  // receives from rank 0. Cutting rank 1's frame short fails the send side,
  // so rank 1's PeerFailure must name rank 2, not its receive peer.
  const int status = run_ranks(
      3,
      [](Communicator& comm) {
        if (comm.rank() == 1) {
          faultnet::install(
              faultnet::parse_plan("op=send,action=short_write,arg=8"));
        }
        std::vector<float> data(64, 1.0f);
        try {
          comm.allreduce(data, ReduceOp::kSum);
        } catch (const PeerFailure& e) {
          // Ranks 0 and 2 fail on the broken ring too; only rank 1's
          // blame is pinned.
          if (comm.rank() != 1) return 0;
          if (e.rank() == 2) return 0;
          std::fprintf(stderr, "rank 1 blamed: %s\n", e.what());
          return 10 + e.rank();
        }
        return comm.rank() == 1 ? 7 : 0;  // a cut frame went unnoticed
      },
      fast_launch());
  EXPECT_EQ(status, 0);
}

TEST(SocketComm, ChildExitCodePropagates) {
  const int status = run_ranks(
      2, [](Communicator& comm) { return comm.rank() == 1 ? 3 : 0; },
      fast_launch());
  EXPECT_EQ(status, 3);
}

TEST(SocketComm, SingleRankShortCircuitsWithoutServer) {
  SocketOptions options;
  options.world_size = 1;
  SocketComm comm(options);
  EXPECT_EQ(comm.rank(), 0);
  EXPECT_EQ(comm.size(), 1);
  std::vector<float> data{1.0f, 2.0f};
  comm.allreduce(data, ReduceOp::kAverage);
  EXPECT_EQ(data[0], 1.0f);
  std::vector<float> gathered;
  comm.allgather_into(data, gathered);
  EXPECT_EQ(gathered, data);
  comm.broadcast(data, 0);
  comm.barrier();
  EXPECT_EQ(comm.stats().wire_sent_bytes, 0u);
}

}  // namespace
}  // namespace dkfac::comm::net

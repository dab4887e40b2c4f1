// Rendezvous server robustness: the poll-driven registration pump must
// tolerate clients that connect and stall, clients that send garbage, and
// clients that die while parked — dropping exactly the offender, never
// starving or failing the well-behaved rest. Plus the elastic surface:
// generation-stamped groups, parked registrations surviving across pumped
// serve calls, and the min-world failure path.
//
// (The happy-path fixed-world rendezvous contracts — rank assignment,
// world-size mismatch, timeouts — live in socket_comm_test.cpp.)
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <thread>
#include <vector>

#include "comm/net/rendezvous.hpp"
#include "comm/net/wire.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"

namespace dkfac::comm::net {
namespace {

TEST(Rendezvous, StalledClientCannotStarveTheGroup) {
  // A client that connects first but never sends its hello must not block
  // the two real workers behind it — the old serial accept loop's failure
  // mode.
  RendezvousServer server;
  Socket stalled = Socket::connect_to("127.0.0.1", server.port(), 2.0);

  std::vector<std::thread> workers;
  std::atomic<int> welcomed{0};
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&, i] {
      const RendezvousInfo info = rendezvous_connect(
          "127.0.0.1", server.port(), /*world=*/2, i, 1000 + i, 5.0);
      EXPECT_EQ(info.world_size, 2);
      welcomed.fetch_add(1);
    });
  }
  const auto start = Clock::now();
  server.serve(/*world_size=*/2, /*timeout_s=*/5.0);
  EXPECT_LT(seconds_since(start), 4.0);
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(welcomed.load(), 2);
}

TEST(Rendezvous, StalledClientIsDroppedAtItsHelloDeadline) {
  RendezvousServer server;
  Socket stalled = Socket::connect_to("127.0.0.1", server.port(), 2.0);

  // A real worker shows up only after the stalled client's ~2 s hello
  // grace has expired, so the server must have dropped the staller (not
  // timed out the assembly) for this group of one to form.
  std::thread worker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2600));
    const RendezvousInfo info = rendezvous_connect(
        "127.0.0.1", server.port(), /*world=*/1, -1, 1234, 8.0);
    EXPECT_EQ(info.rank, 0);
  });
  server.serve(/*world_size=*/1, /*timeout_s=*/10.0);
  worker.join();

  // The drop is visible from the staller's side as EOF.
  uint8_t probe = 0;
  EXPECT_EQ(::recv(stalled.fd(), &probe, 1, 0), 0);
}

TEST(Rendezvous, GarbageHelloDropsOnlyThatClient) {
  RendezvousServer server;

  // Evil client 1: 30 bytes of garbage where a framed hello belongs.
  Socket garbage = Socket::connect_to("127.0.0.1", server.port(), 2.0);
  std::vector<uint8_t> noise(30, 0xAB);
  // Raw bytes past the framing: one ::send, far below the socket buffer.
  ASSERT_EQ(::send(garbage.fd(), noise.data(), noise.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(noise.size()));

  // Evil client 2: a well-formed frame of the WRONG type.
  Socket wrong_type = Socket::connect_to("127.0.0.1", server.port(), 2.0);
  std::vector<uint8_t> payload(10, 0);
  send_frame(wrong_type, FrameType::kData, /*seq=*/0,
             std::span<const uint8_t>(payload), 2.0);

  std::thread worker([&] {
    const RendezvousInfo info = rendezvous_connect(
        "127.0.0.1", server.port(), /*world=*/1, -1, 4321, 5.0);
    EXPECT_EQ(info.rank, 0);
    EXPECT_EQ(info.peer_ports.at(0), 4321);
  });
  const auto start = Clock::now();
  server.serve(/*world_size=*/1, /*timeout_s=*/5.0);
  EXPECT_LT(seconds_since(start), 4.0);
  worker.join();
}

TEST(Rendezvous, ElasticGenerationsStampWelcomesAndIncrement) {
  RendezvousServer server;
  for (int expected_gen = 0; expected_gen < 2; ++expected_gen) {
    std::vector<std::thread> workers;
    for (int i = 0; i < 2; ++i) {
      workers.emplace_back([&, i] {
        const RendezvousInfo info =
            rendezvous_connect("127.0.0.1", server.port(), kElasticWorld, i,
                               2000 + i, 5.0);
        EXPECT_EQ(info.world_size, 2);
        EXPECT_EQ(info.generation, expected_gen);
      });
    }
    const int world = server.serve_generation([] { return 2; },
                                              /*min_world=*/1, 5.0);
    EXPECT_EQ(world, 2);
    for (std::thread& t : workers) t.join();
  }
  EXPECT_EQ(server.generation(), 2);
}

TEST(Rendezvous, ParkedRegistrationsSurviveAcrossPumpedServeCalls) {
  // The supervisor pump pattern: short serve_generation calls that time
  // out must not lose half-assembled groups — the first worker's
  // registration stays parked until the second arrives.
  RendezvousServer server;
  std::thread early([&] {
    const RendezvousInfo info = rendezvous_connect(
        "127.0.0.1", server.port(), kElasticWorld, -1, 3000, 10.0);
    EXPECT_EQ(info.world_size, 2);
  });
  EXPECT_THROW(server.serve_generation([] { return 2; }, 1, /*timeout_s=*/0.5),
               Error);

  std::thread late([&] {
    const RendezvousInfo info = rendezvous_connect(
        "127.0.0.1", server.port(), kElasticWorld, -1, 3001, 10.0);
    EXPECT_EQ(info.world_size, 2);
  });
  const int world = server.serve_generation([] { return 2; }, 1, 5.0);
  EXPECT_EQ(world, 2);
  early.join();
  late.join();
}

TEST(Rendezvous, ServeGenerationFailsFastBelowMinWorld) {
  RendezvousServer server;
  const auto start = Clock::now();
  EXPECT_THROW(server.serve_generation([] { return 1; }, /*min_world=*/2, 5.0),
               Error);
  EXPECT_LT(seconds_since(start), 1.0);
}

}  // namespace
}  // namespace dkfac::comm::net

// faultnet contract tests: the plan grammar rejects malformed scripts with
// typed errors, every injected fault surfaces as a typed dkfac::Error on
// the wire (never a hang, never silent acceptance), injections are
// deterministic for a fixed seed, and with no plan installed the hooks are
// inert (the byte-identical-traffic side is pinned down by the existing
// socket/thread parity test).
#include "comm/net/faultnet.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "comm/net/wire.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"

namespace dkfac::comm::net {
namespace {

/// Connected AF_UNIX stream pair — the in-process stand-in for a TCP
/// connection (same stream semantics, no ports to allocate).
std::pair<Socket, Socket> socket_pair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {Socket(fds[0]), Socket(fds[1])};
}

std::vector<float> test_payload(size_t n) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = 0.25f * static_cast<float>(i) - 1.5f;
  return v;
}

/// Every test leaves the process-global plan uninstalled, whatever path it
/// exits through — faultnet state outliving a test would poison the next.
class Faultnet : public ::testing::Test {
 protected:
  void SetUp() override { faultnet::clear(); }
  void TearDown() override { faultnet::clear(); }
};

using FaultnetPlan = Faultnet;

TEST_F(FaultnetPlan, GrammarParsesEveryField) {
  const faultnet::Plan plan = faultnet::parse_plan(
      "seed=99; rank=2,op=send,epoch=1,step=7,nth=3,times=2,action=bitflip; "
      "op=connect,action=refuse; phase=backward,action=stall,arg=0.01; "
      "op=send,action=short_write,arg=24");
  EXPECT_EQ(plan.seed, 99u);
  ASSERT_EQ(plan.rules.size(), 4u);

  const faultnet::Rule& flip = plan.rules[0];
  EXPECT_EQ(flip.rank, 2);
  EXPECT_EQ(flip.op, faultnet::Op::kSend);
  EXPECT_EQ(flip.epoch, 1);
  EXPECT_EQ(flip.step, 7);
  EXPECT_EQ(flip.nth, 3u);
  EXPECT_EQ(flip.times, 2u);
  EXPECT_EQ(flip.action, faultnet::Action::kBitflip);

  EXPECT_EQ(plan.rules[1].op, faultnet::Op::kConnect);
  EXPECT_EQ(plan.rules[1].action, faultnet::Action::kRefuse);

  EXPECT_EQ(plan.rules[2].phase, faultnet::Phase::kBackward);
  EXPECT_EQ(plan.rules[2].action, faultnet::Action::kStall);
  EXPECT_NEAR(plan.rules[2].stall_s, 0.01, 1e-9);

  EXPECT_EQ(plan.rules[3].action, faultnet::Action::kShortWrite);
  EXPECT_EQ(plan.rules[3].write_cap, 24u);
}

TEST_F(FaultnetPlan, MalformedPlansThrowTyped) {
  const char* bad[] = {
      "nonsense",                         // not key=value
      "op=send",                          // no action
      "action=explode",                   // unknown action
      "op=teleport,action=reset",         // unknown op
      "phase=lunch,action=stall",         // unknown phase
      "rank=two,action=reset",            // non-numeric value
      "nth=0,op=send,action=reset",       // nth is 1-based
      "times=0,op=send,action=reset",     // times >= 1
      "op=send,action=refuse",            // refuse needs op=connect
      "op=recv,action=bitflip",           // bitflip needs op=send
      "op=connect,action=short_write",    // short_write needs op=send
      "phase=forward,op=send,action=stall",  // op and phase are exclusive
      "phase=forward,action=bitflip",     // phase rules: stall/abort only
      "flavor=spicy,action=reset",        // unknown key
      "rank=4294967297,action=reset",     // beyond int: would target rank 1
      "rank=-2,action=reset",             // a sign: would mean any rank
      "epoch=-1,op=send,action=reset",    // a sign: would mean any epoch
      "rank=+1,action=reset",             // a sign
      "step=9223372036854775808,op=send,action=reset",  // beyond int64
      "nth=18446744073709551615,times=2,op=send,action=reset",  // window wraps
      "op=send,action=stall,arg=nan",     // non-finite stall
      "op=send,action=stall,arg=inf",     // non-finite stall
      "op=send,action=stall,arg=1e300",   // too long for sleep_for
      "op=send,action=stall,arg=-0.5",    // negative stall
      "op=send,action=short_write,arg=1e3",  // a cap is a whole byte count
      "op=send,action=short_write,arg=0.5",  // a cap is a whole byte count
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)faultnet::parse_plan(text), Error) << text;
  }
  // An empty plan and a bare seed are fine — they just arm nothing.
  EXPECT_TRUE(faultnet::parse_plan("").rules.empty());
  EXPECT_TRUE(faultnet::parse_plan("seed=5").rules.empty());
}

TEST_F(Faultnet, InactiveByDefault) {
  EXPECT_FALSE(faultnet::active());
  EXPECT_EQ(faultnet::counts().total, 0u);
  faultnet::install(faultnet::parse_plan("op=send,action=reset"));
  EXPECT_TRUE(faultnet::active());
  faultnet::clear();
  EXPECT_FALSE(faultnet::active());
}

TEST_F(Faultnet, BitflipYieldsTypedChecksumErrorDeterministically) {
  const std::vector<float> payload = test_payload(64);
  // The corrupted frame must be REJECTED by the receiver's CRC as a typed
  // error, and the same seed must flip the same bit on every run.
  std::vector<std::string> errors;
  for (int run = 0; run < 2; ++run) {
    faultnet::install(
        faultnet::parse_plan("seed=1234; op=send,action=bitflip"));
    auto [a, b] = socket_pair();
    send_frame(a, FrameType::kData, /*seq=*/0,
               std::span<const float>(payload), 1.0);
    std::vector<float> got(payload.size());
    try {
      recv_frame_into(b, FrameType::kData, /*seq=*/0, std::span<float>(got),
                      1.0);
      FAIL() << "bit-flipped frame was accepted";
    } catch (const Error& e) {
      errors.emplace_back(e.what());
      EXPECT_NE(errors.back().find("checksum"), std::string::npos)
          << errors.back();
    }
    EXPECT_EQ(faultnet::counts().bitflips, 1u);
    EXPECT_EQ(faultnet::counts().total, 1u);
  }
  // The checksum error names the computed CRC; identical text across runs
  // means the identical bit flipped.
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0], errors[1]);
}

/// Sends `payload` through the send side of an exchange_frames whose
/// receive side listens on a separate live pair, so only the send can fail.
void exchange_send(Socket& to, std::span<const float> payload) {
  auto [from, silent_peer] = socket_pair();
  std::vector<uint8_t> got;
  exchange_frames(to, FrameType::kData, /*send_seq=*/0,
                  {reinterpret_cast<const uint8_t*>(payload.data()),
                   payload.size_bytes()},
                  from, FrameType::kData, /*recv_seq=*/0, got, 1.0);
}

TEST_F(Faultnet, ResetOnSendIsTypedOnBothEnds) {
  const std::vector<float> payload = test_payload(256);
  for (const bool exchange : {false, true}) {
    faultnet::install(faultnet::parse_plan("op=send,action=reset"));
    auto [a, b] = socket_pair();
    if (exchange) {
      EXPECT_THROW(exchange_send(a, payload), Error);
    } else {
      EXPECT_THROW(send_frame(a, FrameType::kData, /*seq=*/0,
                              std::span<const float>(payload), 1.0),
                   Error);
    }
    EXPECT_EQ(faultnet::counts().resets, 1u);
    // The peer's read sees the shutdown as a prompt typed error, not a hang.
    faultnet::clear();
    std::vector<float> got(payload.size());
    const auto start = Clock::now();
    EXPECT_THROW(recv_frame_into(b, FrameType::kData, /*seq=*/0,
                                 std::span<float>(got), 1.0),
                 Error);
    EXPECT_LT(seconds_since(start), 2.0);
  }
}

TEST_F(Faultnet, ResetOnRecvIsTyped) {
  // The reset lands before any bytes arrive (data already buffered in the
  // kernel survives a shutdown — as on a real TCP reset, only in-flight
  // and future traffic is lost): the receive sees a prompt typed
  // "connection closed", not a timeout and not a hang.
  auto [a, b] = socket_pair();
  (void)a;  // live but silent peer
  faultnet::install(faultnet::parse_plan("op=recv,action=reset"));
  std::vector<float> got(16);
  const auto start = Clock::now();
  EXPECT_THROW(recv_frame_into(b, FrameType::kData, /*seq=*/0,
                               std::span<float>(got), 5.0),
               Error);
  EXPECT_LT(seconds_since(start), 2.0);
  EXPECT_EQ(faultnet::counts().resets, 1u);
}

TEST_F(Faultnet, ShortWriteIsTypedOnBothEnds) {
  const std::vector<float> payload = test_payload(128);
  for (const bool exchange : {false, true}) {
    faultnet::install(faultnet::parse_plan("op=send,action=short_write"));
    auto [a, b] = socket_pair();
    try {
      if (exchange) {
        exchange_send(a, payload);
      } else {
        send_frame(a, FrameType::kData, /*seq=*/0,
                   std::span<const float>(payload), 1.0);
      }
      ADD_FAILURE() << "injected short write reported success";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("short write"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(faultnet::counts().short_writes, 1u);
    // The receiver sees a truncated stream ending in a shutdown — a typed
    // rejection within its deadline, never an accepted frame.
    faultnet::clear();
    std::vector<float> got(payload.size());
    const auto start = Clock::now();
    EXPECT_THROW(recv_frame_into(b, FrameType::kData, /*seq=*/0,
                                 std::span<float>(got), 2.0),
                 Error);
    EXPECT_LT(seconds_since(start), 2.5);
  }
}

TEST_F(Faultnet, StallDelaysButNeverHangs) {
  auto [a, b] = socket_pair();
  const std::vector<float> payload = test_payload(8);
  send_frame(a, FrameType::kData, /*seq=*/0, std::span<const float>(payload),
             1.0);
  faultnet::install(
      faultnet::parse_plan("op=recv,action=stall,arg=0.3,times=100"));
  // The frame is already queued: the stall only delays its delivery.
  std::vector<float> got(payload.size());
  auto start = Clock::now();
  recv_frame_into(b, FrameType::kData, /*seq=*/0, std::span<float>(got), 5.0);
  EXPECT_GE(seconds_since(start), 0.25);
  EXPECT_EQ(got, payload);
  EXPECT_GE(faultnet::counts().stalls, 1u);
  // A stalled receive against a silent peer still resolves as a typed
  // timeout within its deadline + stall — a delay, never a hang.
  start = Clock::now();
  EXPECT_THROW(recv_frame_into(b, FrameType::kData, /*seq=*/1,
                               std::span<float>(got), 0.2),
               Error);
  EXPECT_LT(seconds_since(start), 2.0);
}

TEST_F(Faultnet, RefusedConnectsRideTheRetryBackoff) {
  ListenSocket listener;
  // The first two attempts are refused; the third goes through — the
  // connect loop's seeded backoff keeps retrying within the deadline.
  faultnet::install(
      faultnet::parse_plan("op=connect,action=refuse,nth=1,times=2"));
  Socket sock = Socket::connect_to("127.0.0.1", listener.port(), 5.0);
  EXPECT_TRUE(sock.valid());
  EXPECT_EQ(faultnet::counts().refused, 2u);

  // All attempts refused: a typed deadline error, promptly.
  faultnet::install(
      faultnet::parse_plan("op=connect,action=refuse,times=1000000"));
  const auto start = Clock::now();
  EXPECT_THROW(
      (void)Socket::connect_to("127.0.0.1", listener.port(), 0.3), Error);
  EXPECT_LT(seconds_since(start), 2.0);
  EXPECT_GE(faultnet::counts().refused, 1u);
}

TEST_F(Faultnet, RulesGateOnRankAndTrainingContext) {
  faultnet::install(faultnet::parse_plan(
      "rank=2,op=send,action=reset; op=send,epoch=1,step=3,action=reset"));
  // Wrong rank AND wrong (epoch, step): neither rule fires.
  faultnet::set_rank(0);
  faultnet::set_step(/*epoch=*/0, /*step=*/3);
  auto [a, b] = socket_pair();
  const std::vector<float> payload = test_payload(8);
  send_frame(a, FrameType::kData, /*seq=*/0, std::span<const float>(payload),
             1.0);
  std::vector<float> got(payload.size());
  recv_frame_into(b, FrameType::kData, /*seq=*/0, std::span<float>(got), 1.0);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(faultnet::counts().total, 0u);

  // Matching (epoch, step): the context-gated rule fires.
  faultnet::set_step(/*epoch=*/1, /*step=*/3);
  EXPECT_THROW(send_frame(a, FrameType::kData, /*seq=*/1,
                          std::span<const float>(payload), 1.0),
               Error);
  EXPECT_EQ(faultnet::counts().resets, 1u);
}

TEST_F(Faultnet, PhaseRulesFireAtPhaseBoundaries) {
  faultnet::install(faultnet::parse_plan(
      "phase=backward,nth=2,action=stall,arg=0.05"));
  const auto start = Clock::now();
  faultnet::at_phase(faultnet::Phase::kBackward);  // 1st: below nth
  EXPECT_EQ(faultnet::counts().stalls, 0u);
  faultnet::at_phase(faultnet::Phase::kForward);   // other phase: no match
  faultnet::at_phase(faultnet::Phase::kBackward);  // 2nd: fires
  EXPECT_EQ(faultnet::counts().stalls, 1u);
  faultnet::at_phase(faultnet::Phase::kBackward);  // 3rd: window closed
  EXPECT_EQ(faultnet::counts().stalls, 1u);
  EXPECT_GE(seconds_since(start), 0.04);
}

TEST_F(Faultnet, NthSelectsTheExactOccurrence) {
  faultnet::install(faultnet::parse_plan("op=send,nth=3,action=reset"));
  auto [a, b] = socket_pair();
  const std::vector<float> payload = test_payload(4);
  // Sends 1 and 2 pass untouched; send 3 hits the reset.
  send_frame(a, FrameType::kData, /*seq=*/0, std::span<const float>(payload),
             1.0);
  send_frame(a, FrameType::kData, /*seq=*/1, std::span<const float>(payload),
             1.0);
  EXPECT_EQ(faultnet::counts().total, 0u);
  EXPECT_THROW(send_frame(a, FrameType::kData, /*seq=*/2,
                          std::span<const float>(payload), 1.0),
               Error);
  EXPECT_EQ(faultnet::counts().resets, 1u);
  std::vector<float> got(payload.size());
  recv_frame_into(b, FrameType::kData, /*seq=*/0, std::span<float>(got), 1.0);
  EXPECT_EQ(got, payload);
}

}  // namespace
}  // namespace dkfac::comm::net

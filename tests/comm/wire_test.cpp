#include "comm/net/wire.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "tensor/random.hpp"

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
  for (size_t i = 0; i < n; ++i) v[i] = 0.5f * static_cast<float>(i) - 3.25f;
  return v;
}

/// Puts raw bytes on the stream in one ::send, bypassing the framing — how
/// these tests hand-craft malformed frames. Every stream here fits the
/// socket buffer, so one call sends it all.
void send_raw(const Socket& sock, const void* data, size_t n) {
  EXPECT_EQ(::send(sock.fd(), data, n, MSG_NOSIGNAL), static_cast<ssize_t>(n));
}

TEST(Wire, Crc32KnownVector) {
  // The canonical IEEE CRC-32 check value.
  const char* data = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const uint8_t*>(data), 9}), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Wire, HeaderEncodeDecodeRoundTrip) {
  FrameHeader h;
  h.type = static_cast<uint16_t>(FrameType::kData);
  h.seq = 0xDEADBEEFu;
  h.length = 1234;
  h.checksum = 0x12345678u;
  uint8_t raw[kFrameHeaderBytes];
  h.encode(raw);
  const FrameHeader d = FrameHeader::decode(raw);
  EXPECT_EQ(d.magic, kWireMagic);
  EXPECT_EQ(d.version, kWireVersion);
  EXPECT_EQ(d.type, h.type);
  EXPECT_EQ(d.seq, h.seq);
  EXPECT_EQ(d.length, h.length);
  EXPECT_EQ(d.checksum, h.checksum);
}

TEST(Wire, FrameRoundTrip) {
  auto [a, b] = socket_pair();
  const std::vector<float> sent = test_payload(257);
  const size_t wire_out = send_frame(a, FrameType::kData, /*seq=*/7,
                                     std::span<const float>(sent), 1.0);
  EXPECT_EQ(wire_out, kFrameHeaderBytes + sent.size() * sizeof(float));

  std::vector<float> got;
  const size_t wire_in = recv_frame(b, FrameType::kData, /*seq=*/7, got, 1.0);
  EXPECT_EQ(wire_in, wire_out);
  EXPECT_EQ(got, sent);
}

TEST(Wire, ZeroLengthFrame) {
  auto [a, b] = socket_pair();
  send_frame(a, FrameType::kData, /*seq=*/0, std::span<const float>{}, 1.0);
  std::vector<uint8_t> out;
  EXPECT_EQ(recv_frame(b, FrameType::kData, /*seq=*/0, out, 1.0),
            kFrameHeaderBytes);
  EXPECT_TRUE(out.empty());
}

TEST(Wire, VariableLengthFrameAppends) {
  auto [a, b] = socket_pair();
  const std::vector<float> sent = test_payload(10);
  send_frame(a, FrameType::kData, /*seq=*/0, std::span<const float>(sent), 1.0);
  std::vector<uint8_t> out{0xAB};  // pre-existing content must survive
  recv_frame(b, FrameType::kData, /*seq=*/0, out, 1.0);
  ASSERT_EQ(out.size(), 1 + sent.size() * sizeof(float));
  EXPECT_EQ(out[0], 0xAB);
  std::vector<float> got(sent.size());
  std::memcpy(got.data(), out.data() + 1, sent.size() * sizeof(float));
  EXPECT_EQ(got, sent);
}

TEST(Wire, ChecksumMismatchThrows) {
  auto [a, b] = socket_pair();
  const std::vector<float> payload = test_payload(16);
  FrameHeader h;
  h.type = static_cast<uint16_t>(FrameType::kData);
  h.length = static_cast<uint32_t>(payload.size() * sizeof(float));
  h.checksum = 0x0BADF00Du;  // wrong on purpose
  uint8_t raw[kFrameHeaderBytes];
  h.encode(raw);
  send_raw(a, raw, kFrameHeaderBytes);
  send_raw(a, payload.data(), payload.size() * sizeof(float));
  std::vector<float> got;
  try {
    recv_frame(b, FrameType::kData, /*seq=*/0, got, 1.0);
    FAIL() << "corrupted frame accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(Wire, VersionMismatchThrows) {
  auto [a, b] = socket_pair();
  FrameHeader h;
  h.version = kWireVersion + 1;
  h.type = static_cast<uint16_t>(FrameType::kHello);
  uint8_t raw[kFrameHeaderBytes];
  h.encode(raw);
  send_raw(a, raw, kFrameHeaderBytes);
  std::vector<uint8_t> out;
  try {
    recv_frame(b, FrameType::kHello, /*seq=*/0, out, 1.0);
    FAIL() << "future-versioned frame accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(Wire, BadMagicThrows) {
  auto [a, b] = socket_pair();
  FrameHeader h;
  h.magic = 0x12345678;
  uint8_t raw[kFrameHeaderBytes];
  h.encode(raw);
  send_raw(a, raw, kFrameHeaderBytes);
  std::vector<uint8_t> out;
  EXPECT_THROW(recv_frame(b, FrameType::kHello, /*seq=*/0, out, 1.0), Error);
}

TEST(Wire, SequenceMismatchThrows) {
  auto [a, b] = socket_pair();
  const std::vector<float> payload = test_payload(4);
  send_frame(a, FrameType::kData, /*seq=*/5, std::span<const float>(payload), 1.0);
  std::vector<float> got;
  try {
    recv_frame(b, FrameType::kData, /*seq=*/0, got, 1.0);
    FAIL() << "desynchronised frame accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("sequence"), std::string::npos);
  }
}

TEST(Wire, TypeMismatchThrows) {
  auto [a, b] = socket_pair();
  send_frame(a, FrameType::kHello, /*seq=*/0, std::span<const float>{}, 1.0);
  std::vector<uint8_t> out;
  EXPECT_THROW(recv_frame(b, FrameType::kData, /*seq=*/0, out, 1.0), Error);
}

TEST(Wire, LengthMismatchThrows) {
  // A receive of a known length (the rendezvous hello) checks it in the
  // header, before any payload byte is read.
  FrameHeader h;
  h.type = static_cast<uint16_t>(FrameType::kData);
  h.length = 8 * sizeof(float);
  // Expects half of what the peer sent.
  EXPECT_THROW(h.check(FrameType::kData, /*seq=*/0, 4 * sizeof(float), "recv"),
               Error);
}

TEST(Wire, RecvTimeoutThrowsQuickly) {
  auto [a, b] = socket_pair();
  (void)a;  // never sends
  std::vector<float> got;
  const auto start = Clock::now();
  try {
    recv_frame(b, FrameType::kData, /*seq=*/0, got, 0.2);
    FAIL() << "recv on a silent peer returned";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos);
  }
  EXPECT_LT(seconds_since(start), 2.0);  // a timeout, not a hang
}

TEST(Wire, FrameHasOneDeadline) {
  // The peer sends 19 header bytes, the 20th at 0.9·T, then nothing: one
  // deadline per frame means a typed timeout at T on every receive route,
  // not a second full T for the payload after the header lands.
  constexpr double kT = 1.0;
  const std::vector<float> payload = test_payload(16);
  FrameHeader h;
  h.type = static_cast<uint16_t>(FrameType::kData);
  h.length = static_cast<uint32_t>(payload.size() * sizeof(float));
  uint8_t raw[kFrameHeaderBytes];
  h.encode(raw);
  auto expect_timeout_by_deadline = [&](const char* route, auto&& receive) {
    std::pair<Socket, Socket> link = socket_pair();
    send_raw(link.first, raw, kFrameHeaderBytes - 1);
    std::thread late([&] {
      std::this_thread::sleep_for(std::chrono::duration<double>(0.9 * kT));
      send_raw(link.first, raw + kFrameHeaderBytes - 1, 1);
    });
    const auto start = Clock::now();
    try {
      receive(link.second);
      ADD_FAILURE() << route << ": a frame without its payload was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
          << route << ": " << e.what();
    }
    EXPECT_LT(seconds_since(start), 1.3 * kT) << route;
    late.join();
  };
  // Both routes receive into a float vector, the destination
  // SocketComm::exchange uses.
  std::vector<float> got;
  expect_timeout_by_deadline("recv_frame", [&](Socket& from) {
    recv_frame(from, FrameType::kData, /*seq=*/0, got, kT);
  });
  // The exchange's send side goes to a separate live pair, so only its
  // receive side can time out.
  std::pair<Socket, Socket> live = socket_pair();
  expect_timeout_by_deadline("exchange_frames", [&](Socket& from) {
    exchange_frames(live.first, FrameType::kData, /*send_seq=*/0,
                    {reinterpret_cast<const uint8_t*>(payload.data()),
                     payload.size() * sizeof(float)},
                    from, FrameType::kData, /*recv_seq=*/0, got, kT);
  });
}

TEST(Wire, PeerCloseThrows) {
  auto [a, b] = socket_pair();
  a.close();
  std::vector<float> got;
  try {
    recv_frame(b, FrameType::kData, /*seq=*/0, got, 1.0);
    FAIL() << "recv from a dead peer returned";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("closed"), std::string::npos);
  }
}

TEST(Wire, SendToClosedPeerThrowsNotSigpipe) {
  auto [a, b] = socket_pair();
  b.close();
  const std::vector<float> payload = test_payload(1 << 16);
  // The first sends may land in the kernel buffer; keep writing until the
  // reset surfaces. MSG_NOSIGNAL must turn SIGPIPE into an Error.
  EXPECT_THROW(
      {
        for (int i = 0; i < 64; ++i) {
          send_frame(a, FrameType::kData, static_cast<uint32_t>(i),
                     std::span<const float>(payload), 1.0);
        }
      },
      Error);
}

TEST(Wire, ExchangeFullDuplexSingleThreaded) {
  // One endpoint pre-loads a frame, then exchange() on the other side must
  // send and receive concurrently without a second thread.
  auto [a, b] = socket_pair();
  const std::vector<float> from_b = test_payload(33);
  send_frame(b, FrameType::kData, /*seq=*/0, std::span<const float>(from_b), 1.0);

  const std::vector<float> from_a = test_payload(77);
  std::vector<uint8_t> got;
  const size_t moved = exchange_frames(
      a, FrameType::kData, /*send_seq=*/0,
      {reinterpret_cast<const uint8_t*>(from_a.data()), from_a.size() * sizeof(float)},
      a, FrameType::kData, /*recv_seq=*/0, got, 1.0);
  EXPECT_EQ(moved, 2 * kFrameHeaderBytes + (33 + 77) * sizeof(float));
  ASSERT_EQ(got.size(), from_b.size() * sizeof(float));
  EXPECT_EQ(std::memcmp(got.data(), from_b.data(), got.size()), 0);

  std::vector<float> b_got;
  recv_frame(b, FrameType::kData, /*seq=*/0, b_got, 1.0);
  EXPECT_EQ(b_got, from_a);
}

// ---- frame fuzzing --------------------------------------------------------
//
// Hardening sweep: no mutation of a valid frame — truncation, a bit flip
// anywhere in header/payload/CRC, or an oversized length field — may ever
// be ACCEPTED, HANG the receiver, or escape as anything but a typed
// dkfac::Error. The PRNG is seeded deterministically, so a failure
// reproduces exactly; CRC-collision flakes are impossible for single-bit
// flips (CRC-32 detects all of them) and the truncation/oversize paths
// never reach the checksum.

/// One canonical valid frame (header + payload bytes) as it appears on the
/// stream.
std::vector<uint8_t> canonical_frame(std::span<const float> payload,
                                     uint32_t seq) {
  FrameHeader h;
  h.type = static_cast<uint16_t>(FrameType::kData);
  h.seq = seq;
  h.length = static_cast<uint32_t>(payload.size_bytes());
  h.checksum = crc32({reinterpret_cast<const uint8_t*>(payload.data()),
                      payload.size_bytes()});
  std::vector<uint8_t> frame(kFrameHeaderBytes + payload.size_bytes());
  h.encode(frame.data());
  std::memcpy(frame.data() + kFrameHeaderBytes, payload.data(),
              payload.size_bytes());
  return frame;
}

/// Writes `stream` to a fresh connection, closes the sender, and expects
/// the frame receive to surface a typed dkfac::Error — never success, a
/// hang, or a foreign exception (which would propagate and fail the test).
/// Each stream goes through both receive routes: recv_frame into a byte
/// vector, and the receive side of exchange_frames into a float vector (the
/// destination SocketComm::exchange uses), whose send side goes to a
/// separate live pair so a rejection can only come from the receive.
void expect_typed_rejection(const std::vector<uint8_t>& stream,
                            const std::string& what) {
  const std::vector<float> outgoing = test_payload(3);
  for (const bool exchange : {false, true}) {
    auto [sender, receiver] = socket_pair();
    auto [out, sink] = socket_pair();
    if (!stream.empty()) send_raw(sender, stream.data(), stream.size());
    // Closing the sender turns every "waiting for more bytes" state into an
    // immediate peer-close error instead of a timeout wait.
    sender.close();
    const std::string route = what + (exchange ? " (exchange)" : " (recv)");
    const auto start = Clock::now();
    try {
      if (exchange) {
        std::vector<float> got;
        exchange_frames(out, FrameType::kData, /*send_seq=*/0,
                        {reinterpret_cast<const uint8_t*>(outgoing.data()),
                         outgoing.size() * sizeof(float)},
                        receiver, FrameType::kData, /*recv_seq=*/9, got, 2.0);
      } else {
        std::vector<uint8_t> got;
        recv_frame(receiver, FrameType::kData, /*seq=*/9, got, 2.0);
      }
      ADD_FAILURE() << route << ": mutated frame was accepted";
    } catch (const Error&) {
      // Typed rejection — exactly what the contract demands.
    }
    EXPECT_LT(seconds_since(start), 2.5) << route << ": rejection was not prompt";
  }
}

TEST(WireFuzz, TruncatedFramesAlwaysRejectTyped) {
  const std::vector<float> payload = test_payload(37);
  const std::vector<uint8_t> frame = canonical_frame(payload, /*seq=*/9);
  Rng rng(0xF422);
  // Every header-boundary truncation plus a random sample of the rest.
  for (size_t cut = 0; cut <= kFrameHeaderBytes; ++cut) {
    expect_typed_rejection({frame.begin(), frame.begin() + static_cast<ptrdiff_t>(cut)},
                           "truncate@" + std::to_string(cut));
  }
  for (int i = 0; i < 64; ++i) {
    const size_t cut = rng.uniform_int(frame.size());  // in [0, size)
    expect_typed_rejection({frame.begin(), frame.begin() + static_cast<ptrdiff_t>(cut)},
                           "truncate@" + std::to_string(cut));
  }
}

TEST(WireFuzz, BitFlipsAnywhereAlwaysRejectTyped) {
  const std::vector<float> payload = test_payload(37);
  const std::vector<uint8_t> frame = canonical_frame(payload, /*seq=*/9);
  Rng rng(0xB17F11B);
  // Every bit of the header (magic, version, type, seq, length, CRC) plus
  // a random sample of payload bits.
  for (size_t bit = 0; bit < kFrameHeaderBytes * 8; ++bit) {
    std::vector<uint8_t> mutated = frame;
    mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    expect_typed_rejection(mutated, "headerflip@" + std::to_string(bit));
  }
  for (int i = 0; i < 128; ++i) {
    const size_t bit =
        kFrameHeaderBytes * 8 + rng.uniform_int((frame.size() - kFrameHeaderBytes) * 8);
    std::vector<uint8_t> mutated = frame;
    mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    expect_typed_rejection(mutated, "payloadflip@" + std::to_string(bit));
  }
}

TEST(WireFuzz, OversizedLengthFieldsRejectBeforeAllocation) {
  const std::vector<float> payload = test_payload(8);
  Rng rng(0x0DDF00D);
  for (int i = 0; i < 32; ++i) {
    std::vector<uint8_t> frame = canonical_frame(payload, /*seq=*/9);
    // Length field lives at bytes 12..15. Patch in a value beyond the
    // protocol cap — the receiver must reject it BEFORE allocating or
    // waiting for a payload that will never arrive.
    const uint32_t huge =
        kMaxFramePayloadBytes + 1u +
        static_cast<uint32_t>(rng.uniform_int(0x7FFFFFFFu - kMaxFramePayloadBytes));
    for (int b = 0; b < 4; ++b) {
      frame[12 + static_cast<size_t>(b)] = static_cast<uint8_t>(huge >> (8 * b));
    }
    expect_typed_rejection(frame, "hugelen=" + std::to_string(huge));
  }
}

TEST(WireFuzz, RandomGarbageStreamsRejectTyped) {
  Rng rng(0x6A42BA6E);
  for (int i = 0; i < 64; ++i) {
    std::vector<uint8_t> garbage(rng.uniform_int(256));
    for (uint8_t& b : garbage) {
      b = static_cast<uint8_t>(rng.uniform_int(256));
    }
    expect_typed_rejection(garbage, "garbage#" + std::to_string(i));
  }
}

TEST(Wire, ExchangeLargePayloadsDoNotDeadlock) {
  // Both sides send 8 MB at once — far beyond any socket buffer. Blocking
  // send-then-recv would wedge here; the full-duplex pump must not.
  auto [a, b] = socket_pair();
  const std::vector<float> big_a = test_payload(2 << 20);
  const std::vector<float> big_b = test_payload(2 << 20);

  std::thread other([&] {
    std::vector<uint8_t> got;
    exchange_frames(b, FrameType::kData, /*send_seq=*/0,
                    {reinterpret_cast<const uint8_t*>(big_b.data()),
                     big_b.size() * sizeof(float)},
                    b, FrameType::kData, /*recv_seq=*/0, got, 30.0);
    EXPECT_EQ(got.size(), big_a.size() * sizeof(float));
    EXPECT_EQ(std::memcmp(got.data(), big_a.data(), got.size()), 0);
  });

  std::vector<uint8_t> got;
  exchange_frames(a, FrameType::kData, /*send_seq=*/0,
                  {reinterpret_cast<const uint8_t*>(big_a.data()),
                   big_a.size() * sizeof(float)},
                  a, FrameType::kData, /*recv_seq=*/0, got, 30.0);
  other.join();
  EXPECT_EQ(got.size(), big_b.size() * sizeof(float));
  EXPECT_EQ(std::memcmp(got.data(), big_b.data(), got.size()), 0);
}

}  // namespace
}  // namespace dkfac::comm::net

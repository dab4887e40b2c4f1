// TCP wire protocol for the socket collective backend.
//
// Every message on a dkfac connection is one length-prefixed frame:
//
//   | magic u32 | version u16 | type u16 | seq u32 | length u32 | crc32 u32 |
//   | payload bytes ... (length of them)                                    |
//
// all little-endian. `seq` is a per-connection, per-direction message
// counter: both ends of a connection agree on how many frames have flowed
// each way, so a desynchronised collective (one rank issuing a different
// collective sequence than its peer) fails loudly at the frame layer
// instead of silently reinterpreting payload bytes. `crc32` covers the
// payload, catching corruption and framing bugs. The first frame on every
// connection is a kHello carrying the protocol version — a peer built
// against a different wire format is rejected before any payload moves.
//
// Socket is a poll-driven non-blocking RAII fd wrapper: every operation
// takes a deadline, so a dead or wedged peer produces a dkfac::Error
// ("timed out" / "closed the connection") instead of a hang — the
// property the multi-process tests and the rendezvous path rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace dkfac::comm::net {

constexpr uint32_t kWireMagic = 0x444B4643;  // "DKFC"
constexpr uint16_t kWireVersion = 1;

/// Sanity cap on a single frame's payload. Legitimate payloads top out at
/// the fusion-buffer clamp (64 MB); anything near UINT32_MAX is a corrupt
/// or hostile stream, and the length must be rejected BEFORE the receive
/// path allocates it — the checksum only runs after the payload lands.
constexpr uint32_t kMaxFramePayloadBytes = 256u << 20;

enum class FrameType : uint16_t {
  kHello = 1,    // handshake: rendezvous registration / peer identification
  kWelcome = 2,  // rendezvous reply: rank assignment + peer table
  kData = 3,     // collective payload
};

constexpr size_t kFrameHeaderBytes = 20;

struct FrameHeader {
  uint32_t magic = kWireMagic;
  uint16_t version = kWireVersion;
  uint16_t type = 0;
  uint32_t seq = 0;
  uint32_t length = 0;    // payload bytes
  uint32_t checksum = 0;  // crc32 of the payload

  void encode(uint8_t out[kFrameHeaderBytes]) const;
  static FrameHeader decode(const uint8_t in[kFrameHeaderBytes]);
  /// The one check a received header passes before any of its payload is
  /// read: magic, version, the payload cap, the expected type and seq and,
  /// when `length` is set, that exact payload length. Throws dkfac::Error
  /// prefixed with `context` on the first mismatch.
  void check(FrameType type, uint32_t seq, std::optional<size_t> length,
             const char* context) const;
  /// The one check a received payload passes once it has landed: its
  /// CRC-32 against `checksum`. Throws dkfac::Error prefixed with
  /// `context`.
  void check_payload(std::span<const uint8_t> payload,
                     const char* context) const;
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`.
uint32_t crc32(std::span<const uint8_t> data);

// ---- errno classification -------------------------------------------------
//
// The single place transient vs fatal network errnos are told apart; the
// connect loop, the frame pump and the rendezvous registration pump all
// route through these so they can never drift on what "try again" means.

/// Connect-phase errnos worth retrying until the deadline: the listener is
/// not accepting yet (rendezvous startup) or the kernel dropped the
/// attempt transiently. Everything else (EADDRNOTAVAIL, ENETUNREACH, ...)
/// is a configuration or routing fault — fail fast.
bool transient_connect_errno(int err);

/// Errnos a non-blocking I/O loop treats as "no progress right now, poll
/// and retry": EAGAIN / EWOULDBLOCK / EINTR.
bool transient_io_errno(int err);

/// Seeded-jittered exponential backoff for connect retries: each next_s()
/// doubles the base delay (capped) and scales it by a deterministic jitter
/// in [0.5, 1.0], so retry storms from simultaneously restarting ranks
/// de-synchronise without losing reproducibility for a fixed seed.
class Backoff {
 public:
  explicit Backoff(uint64_t seed, double base_s = 0.002, double cap_s = 0.25)
      : state_(seed), delay_s_(base_s), cap_s_(cap_s) {}

  /// The next sleep in seconds.
  double next_s();

 private:
  uint64_t state_;
  double delay_s_;
  double cap_s_;
};

/// Non-blocking TCP socket with poll-based deadlines. Move-only RAII.
class Socket {
 public:
  Socket() = default;
  /// Takes ownership of `fd` and switches it to non-blocking mode.
  explicit Socket(int fd);
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Connects to host:port, retrying refused connections until the
  /// deadline (the listener may not be up yet during rendezvous).
  static Socket connect_to(const std::string& host, uint16_t port,
                           double timeout_s);

  /// Disables Nagle batching — collective frames must not sit in the
  /// kernel waiting for a full segment.
  void set_nodelay();

 private:
  int fd_ = -1;
};

/// Listening TCP socket on 127.0.0.1 with an ephemeral kernel-chosen port.
class ListenSocket {
 public:
  ListenSocket();  // binds + listens immediately
  uint16_t port() const { return port_; }
  bool valid() const { return sock_.valid(); }
  /// Raw fd for callers that multiplex the listener with other sockets in
  /// one poll set (the rendezvous registration pump).
  int fd() const { return sock_.fd(); }
  /// Accepts one connection before the deadline or throws.
  Socket accept(double timeout_s);
  /// Drops the listener (children of a forking launcher close their
  /// inherited copy so only the owner ever accepts).
  void close() { sock_.close(); }

 private:
  Socket sock_;
  uint16_t port_ = 0;
};

// ---- framed I/O -----------------------------------------------------------
//
// One pump, transfer_frames(), moves every frame byte. It sends one frame,
// receives one, or does both at once, making progress on whichever
// direction is ready: with blocking I/O, a ring where every rank sends
// before it receives wedges once payloads exceed the kernel socket buffers.
// A header leaves with its payload in one sendmsg, straight from the
// caller's memory; a received header passes FrameHeader::check before any
// payload byte is read, and the payload lands straight in its destination,
// sized by the frame. One deadline covers the whole call from the moment it
// starts. faultnet's send hook and then its receive hook run once per call,
// for the sides it has. The three helpers after it are calls into it. All
// return the wire bytes moved (headers included, both directions) so
// callers can account real bytes-on-wire in CommStats.

/// Where a received payload lands: appended to *append, whatever its
/// length; or in *floats, resized to the payload, which must be whole
/// floats. Implicit, so a vector passes as it is. Only a call that receives
/// nothing may leave both null.
struct FrameDst {
  FrameDst() = default;
  FrameDst(std::vector<uint8_t>& grow) : append(&grow) {}
  FrameDst(std::vector<float>& resize) : floats(&resize) {}

  std::vector<uint8_t>* append = nullptr;
  std::vector<float>* floats = nullptr;
};

/// The side of a transfer_frames call that failed.
enum class FrameSide : uint8_t { kSend, kRecv };

/// What transfer_frames throws when a frame fails: the send side for an
/// error of its sendmsg loop, an injected short write, or a deadline (or
/// poll failure) met with only the send pending; the receive side for
/// everything else. A caller on two links can then name the right peer.
class FrameError : public Error {
 public:
  FrameError(FrameSide side, const std::string& what)
      : Error(what), side_(side) {}
  FrameSide side() const { return side_; }

 private:
  FrameSide side_;
};

/// Sends `send_payload` to `to` as frame (send_type, send_seq) while
/// receiving frame (recv_type, recv_seq) from `from` into `recv_dst`; a
/// null socket drops that side. `seq` is the caller-maintained
/// per-direction counter. Throws FrameError.
size_t transfer_frames(Socket* to, FrameType send_type, uint32_t send_seq,
                       std::span<const uint8_t> send_payload, Socket* from,
                       FrameType recv_type, uint32_t recv_seq,
                       FrameDst recv_dst, double timeout_s);

/// Sends one frame.
inline size_t send_frame(Socket& sock, FrameType type, uint32_t seq,
                         std::span<const uint8_t> payload, double timeout_s) {
  return transfer_frames(&sock, type, seq, payload, nullptr, type, 0, {},
                         timeout_s);
}
inline size_t send_frame(Socket& sock, FrameType type, uint32_t seq,
                         std::span<const float> payload, double timeout_s) {
  return send_frame(sock, type, seq,
                    std::span<const uint8_t>(
                        reinterpret_cast<const uint8_t*>(payload.data()),
                        payload.size_bytes()),
                    timeout_s);
}

/// Receives one frame of unknown payload length into `out`.
inline size_t recv_frame(Socket& sock, FrameType type, uint32_t seq,
                         FrameDst out, double timeout_s) {
  return transfer_frames(nullptr, type, 0, {}, &sock, type, seq, out,
                         timeout_s);
}

/// Full duplex: sends one frame to `to` while receiving one from `from`
/// into `in`.
inline size_t exchange_frames(Socket& to, FrameType send_type,
                              uint32_t send_seq,
                              std::span<const uint8_t> send_payload,
                              Socket& from, FrameType recv_type,
                              uint32_t recv_seq, FrameDst in,
                              double timeout_s) {
  return transfer_frames(&to, send_type, send_seq, send_payload, &from,
                         recv_type, recv_seq, in, timeout_s);
}

// ---- little-endian payload builders --------------------------------------

inline void put_u16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}
inline void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}
inline uint16_t get_u16(std::span<const uint8_t> in, size_t offset) {
  DKFAC_CHECK(offset + 2 <= in.size()) << "payload underflow";
  return static_cast<uint16_t>(in[offset] | (in[offset + 1] << 8));
}
inline uint32_t get_u32(std::span<const uint8_t> in, size_t offset) {
  DKFAC_CHECK(offset + 4 <= in.size()) << "payload underflow";
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(in[offset + i]) << (8 * i);
  return v;
}

}  // namespace dkfac::comm::net

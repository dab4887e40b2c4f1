#include "comm/net/wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <thread>

#include "comm/net/faultnet.hpp"
#include "common/clock.hpp"

namespace dkfac::comm::net {

namespace {

// Slicing-by-8 CRC-32 tables: table[k][b] advances the register by k+1
// bytes at once, so the hot loop folds 8 payload bytes per iteration —
// every collective payload is checksummed at every hop, so a bytewise
// CRC would sit on the critical path next to the loopback copy itself.
constexpr std::array<std::array<uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      tables[k][i] = tables[0][tables[k - 1][i] & 0xFFu] ^ (tables[k - 1][i] >> 8);
    }
  }
  return tables;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kCrcTables = make_crc_tables();

[[noreturn]] void throw_errno(const char* what) {
  throw Error(std::string(what) + ": " + std::strerror(errno));
}

/// Remaining milliseconds before `deadline`, clamped to [0, ...]; throws
/// when already past it so every poll loop fails instead of spinning.
int remaining_ms(Clock::time_point deadline, const char* what) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  if (left.count() <= 0) {
    throw Error(std::string(what) + ": timed out");
  }
  // Round up so a sub-millisecond remainder still polls once with 1 ms.
  return static_cast<int>(left.count()) + 1;
}

void wait_ready(int fd, short events, Clock::time_point deadline,
                const char* what) {
  for (;;) {
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, remaining_ms(deadline, what));
    if (rc > 0) return;
    if (rc < 0 && errno != EINTR) throw_errno(what);
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  DKFAC_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0)
      << "fcntl(O_NONBLOCK) failed: " << std::strerror(errno);
}

sockaddr_in local_addr(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  DKFAC_CHECK(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1)
      << "invalid IPv4 address '" << host << "'";
  return addr;
}

}  // namespace

bool transient_connect_errno(int err) {
  // The listener is not up or not accepting yet (rendezvous startup), or
  // the kernel shed the attempt under churn — worth retrying until the
  // deadline. Anything else is a configuration/routing fault.
  return err == ECONNREFUSED || err == ECONNRESET || err == ECONNABORTED ||
         err == ETIMEDOUT || err == EAGAIN || err == EINTR;
}

bool transient_io_errno(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == EINTR;
}

double Backoff::next_s() {
  // splitmix64 step — cheap, stateless-quality jitter per draw.
  state_ += 0x9E3779B97F4A7C15ull;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  const double unit = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0, 1)
  const double delay = delay_s_ * (0.5 + 0.5 * unit);
  delay_s_ = std::min(delay_s_ * 2.0, cap_s_);
  return delay;
}

uint32_t crc32(std::span<const uint8_t> data) {
  const auto& t = kCrcTables;
  uint32_t c = 0xFFFFFFFFu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);      // little-endian layout, like the wire
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void FrameHeader::encode(uint8_t out[kFrameHeaderBytes]) const {
  auto put32 = [&out](size_t off, uint32_t v) {
    for (int i = 0; i < 4; ++i) out[off + i] = static_cast<uint8_t>(v >> (8 * i));
  };
  put32(0, magic);
  out[4] = static_cast<uint8_t>(version);
  out[5] = static_cast<uint8_t>(version >> 8);
  out[6] = static_cast<uint8_t>(type);
  out[7] = static_cast<uint8_t>(type >> 8);
  put32(8, seq);
  put32(12, length);
  put32(16, checksum);
}

FrameHeader FrameHeader::decode(const uint8_t in[kFrameHeaderBytes]) {
  auto get32 = [&in](size_t off) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(in[off + i]) << (8 * i);
    return v;
  };
  FrameHeader h;
  h.magic = get32(0);
  h.version = static_cast<uint16_t>(in[4] | (in[5] << 8));
  h.type = static_cast<uint16_t>(in[6] | (in[7] << 8));
  h.seq = get32(8);
  h.length = get32(12);
  h.checksum = get32(16);
  return h;
}

void FrameHeader::check(FrameType expected_type, uint32_t expected_seq,
                        std::optional<size_t> expected_length,
                        const char* context) const {
  DKFAC_CHECK(magic == kWireMagic)
      << context << ": bad frame magic 0x" << std::hex << magic
      << " (not a dkfac peer?)";
  DKFAC_CHECK(version == kWireVersion)
      << context << ": wire version mismatch — peer speaks v" << version
      << ", this build speaks v" << kWireVersion;
  // Before anything sizes a destination by it: the checksum only runs
  // after the payload has landed.
  DKFAC_CHECK(length <= kMaxFramePayloadBytes)
      << context << ": frame payload length " << length
      << " exceeds the protocol cap (corrupt stream?)";
  DKFAC_CHECK(type == static_cast<uint16_t>(expected_type))
      << context << ": frame type mismatch: expected "
      << static_cast<int>(expected_type) << ", got " << type
      << " (collective sequence desync?)";
  DKFAC_CHECK(seq == expected_seq)
      << context << ": frame sequence mismatch: expected " << expected_seq
      << ", got " << seq << " (collective sequence desync?)";
  DKFAC_CHECK(!expected_length || length == *expected_length)
      << context << ": frame length mismatch: peer sent " << length
      << " bytes, expected " << *expected_length;
}

void FrameHeader::check_payload(std::span<const uint8_t> payload,
                                const char* context) const {
  const uint32_t actual = crc32(payload);
  DKFAC_CHECK(actual == checksum)
      << context << ": frame checksum mismatch: payload corrupted in transit "
      << "(expected 0x" << std::hex << checksum << ", got 0x" << actual
      << ")";
}

// ---- Socket ---------------------------------------------------------------

Socket::Socket(int fd) : fd_(fd) {
  DKFAC_CHECK(fd_ >= 0) << "Socket given invalid fd";
  set_nonblocking(fd_);
}

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::set_nodelay() {
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Socket Socket::connect_to(const std::string& host, uint16_t port,
                          double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  const sockaddr_in addr = local_addr(host, port);
  // Seeded-jittered exponential backoff between transient failures:
  // restarting ranks that all dial the same listener de-synchronise their
  // retries instead of hammering it in lockstep, and the seed (port ⊕ pid)
  // keeps each process's retry schedule reproducible.
  Backoff backoff(static_cast<uint64_t>(port) * 0x9E3779B9ull ^
                  static_cast<uint64_t>(::getpid()));
  for (;;) {
    // faultnet refused-connect injection replaces the real attempt and
    // rides the same transient retry path a genuine ECONNREFUSED takes.
    if (!(faultnet::active() && faultnet::on_connect_attempt())) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) throw_errno("socket()");
      Socket sock(fd);  // non-blocking from here on
      const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                               sizeof(addr));
      int err = rc == 0 ? 0 : errno;
      if (err == EINPROGRESS) {
        wait_ready(fd, POLLOUT, deadline, "connect");
        socklen_t len = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      }
      if (err == 0) {
        sock.set_nodelay();
        return sock;
      }
      // The listener may not be accepting yet (rendezvous startup): retry
      // transient failures until the deadline.
      if (!transient_connect_errno(err)) {
        errno = err;
        throw_errno("connect");
      }
    }
    const auto now = Clock::now();
    if (now >= deadline) {
      throw Error("connect to " + host + ":" + std::to_string(port) +
                  ": timed out (connection refused)");
    }
    const double left = std::chrono::duration<double>(deadline - now).count();
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::min(backoff.next_s(), std::max(left, 0.0))));
  }
}

// ---- ListenSocket ---------------------------------------------------------

ListenSocket::ListenSocket() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket()");
  sock_ = Socket(fd);
  sockaddr_in addr = local_addr("127.0.0.1", 0);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind");
  }
  if (::listen(fd, 64) != 0) throw_errno("listen");
  socklen_t len = sizeof(addr);
  DKFAC_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
      << "getsockname failed: " << std::strerror(errno);
  port_ = ntohs(addr.sin_port);
}

Socket ListenSocket::accept(double timeout_s) {
  DKFAC_CHECK(sock_.valid()) << "accept on closed listener";
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    const int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      Socket peer(fd);
      peer.set_nodelay();
      return peer;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      wait_ready(sock_.fd(), POLLIN, deadline, "accept");
      continue;
    }
    if (errno == EINTR) continue;
    throw_errno("accept");
  }
}

// ---- framed I/O -----------------------------------------------------------

size_t transfer_frames(Socket* to, FrameType send_type, uint32_t send_seq,
                       std::span<const uint8_t> send_payload, Socket* from,
                       FrameType recv_type, uint32_t recv_seq,
                       FrameDst recv_dst, double timeout_s) {
  // One deadline per call, from the moment it starts: an injected stall
  // below counts against it.
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  const char* what = to == nullptr     ? "recv"
                     : from == nullptr ? "send"
                                       : "exchange";

  // Send state: header bytes then payload bytes, tracked by one offset.
  uint8_t send_raw[kFrameHeaderBytes];
  size_t send_total = 0;
  if (to != nullptr) {
    FrameHeader header;
    header.type = static_cast<uint16_t>(send_type);
    header.seq = send_seq;
    header.length = static_cast<uint32_t>(send_payload.size());
    DKFAC_CHECK(send_payload.size() == header.length)
        << "frame payload too large";
    header.checksum = crc32(send_payload);
    header.encode(send_raw);
    send_total = kFrameHeaderBytes + send_payload.size();
  }
  size_t send_end = send_total;  // below send_total: an injected short write
  bool receiving = from != nullptr;
  std::vector<uint8_t> fault_scratch;
  if (faultnet::active()) {
    // After the checksum: an injected bitflip ships under the original CRC
    // (a typed error at the receiver). A short write ends the frame, and
    // the connection, before this call receives anything.
    if (to != nullptr) {
      const faultnet::SendFault fault =
          faultnet::on_send(to->fd(), send_payload, fault_scratch);
      send_payload = fault.payload;
      if (fault.truncate_after) {
        send_end = *fault.truncate_after;
        receiving = false;
      }
    }
    if (receiving) faultnet::on_recv(from->fd());
  }

  // Receive state: header first, then the payload straight into recv_dst,
  // which is resolved the moment the header has landed and passed its
  // check — the payload is never staged in an intermediate buffer.
  uint8_t recv_raw[kFrameHeaderBytes];
  FrameHeader recv_header;
  uint8_t* recv_payload = nullptr;
  size_t recv_pos = 0;
  // Grows by the payload length once the header has landed.
  size_t recv_total = receiving ? kFrameHeaderBytes : 0;

  size_t send_pos = 0;
  auto pump_send = [&] {
    while (send_pos < send_end) {
      // Gather header + payload into one sendmsg: the payload leaves from
      // the caller's memory without frame assembly. The iovec is rebuilt
      // from the running offset each round — a partial send may have
      // stopped anywhere, including mid-header — and stops at send_end.
      size_t left = send_end - send_pos;
      iovec iov[2];
      size_t iovcnt = 0;
      if (send_pos < kFrameHeaderBytes) {
        const size_t head = std::min(left, kFrameHeaderBytes - send_pos);
        iov[iovcnt++] = {send_raw + send_pos, head};
        left -= head;
      }
      if (left > 0) {
        const size_t offset =
            std::max(send_pos, kFrameHeaderBytes) - kFrameHeaderBytes;
        iov[iovcnt++] = {const_cast<uint8_t*>(send_payload.data()) + offset,
                         left};
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = iovcnt;
      // MSG_NOSIGNAL: a dead peer must surface as EPIPE → Error, not SIGPIPE.
      const ssize_t rc = ::sendmsg(to->fd(), &msg, MSG_NOSIGNAL);
      if (rc > 0) {
        send_pos += static_cast<size_t>(rc);
        continue;
      }
      if (rc < 0 && transient_io_errno(errno)) return;
      if (rc < 0 && (errno == EPIPE || errno == ECONNRESET)) {
        throw Error(std::string(what) + ": peer closed the connection");
      }
      throw_errno(what);
    }
  };

  auto pump_recv = [&] {
    while (recv_pos < recv_total) {
      uint8_t* dst = recv_pos < kFrameHeaderBytes
                         ? recv_raw + recv_pos
                         : recv_payload + (recv_pos - kFrameHeaderBytes);
      const ssize_t rc = ::recv(from->fd(), dst, recv_total - recv_pos, 0);
      if (rc == 0 || (rc < 0 && errno == ECONNRESET)) {
        throw Error(std::string(what) + ": peer closed the connection");
      }
      if (rc < 0 && transient_io_errno(errno)) return;
      if (rc < 0) throw_errno(what);
      recv_pos += static_cast<size_t>(rc);
      if (recv_pos == kFrameHeaderBytes) {
        recv_header = FrameHeader::decode(recv_raw);
        recv_header.check(recv_type, recv_seq, std::nullopt, what);
        if (std::vector<uint8_t>* append = recv_dst.append) {
          const size_t base = append->size();
          append->resize(base + recv_header.length);
          recv_payload = append->data() + base;
        } else {
          DKFAC_CHECK(recv_header.length % sizeof(float) == 0)
              << what << ": frame payload of " << recv_header.length
              << " bytes is not whole floats";
          recv_dst.floats->resize(recv_header.length / sizeof(float));
          recv_payload = reinterpret_cast<uint8_t*>(recv_dst.floats->data());
        }
        recv_total += recv_header.length;
      }
    }
  };

  // The side a failure is blamed on (see FrameError), kept current as the
  // pump moves between directions.
  FrameSide side = FrameSide::kRecv;
  try {
    for (;;) {
      side = FrameSide::kSend;
      pump_send();
      side = FrameSide::kRecv;
      pump_recv();
      const bool sending = send_pos < send_end;
      const bool waiting = recv_pos < recv_total;
      if (!sending && !waiting) break;
      pollfd pfds[2];
      nfds_t nfds = 0;
      if (sending) pfds[nfds++] = {to->fd(), POLLOUT, 0};
      if (waiting) pfds[nfds++] = {from->fd(), POLLIN, 0};
      side = waiting ? FrameSide::kRecv : FrameSide::kSend;
      const int rc = ::poll(pfds, nfds, remaining_ms(deadline, what));
      if (rc < 0 && errno != EINTR) throw_errno(what);
    }

    if (send_end < send_total) {
      side = FrameSide::kSend;
      ::shutdown(to->fd(), SHUT_RDWR);
      throw Error(std::string(what) + ": faultnet injected short write (" +
                  std::to_string(send_end) + " of " +
                  std::to_string(send_total) + " bytes)");
    }
    if (receiving) {
      side = FrameSide::kRecv;
      recv_header.check_payload({recv_payload, recv_header.length}, what);
    }
  } catch (const Error& e) {
    throw FrameError(side, e.what());
  }
  return send_total + recv_total;
}

}  // namespace dkfac::comm::net

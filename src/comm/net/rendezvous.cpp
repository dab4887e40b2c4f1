#include "comm/net/rendezvous.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"

namespace dkfac::comm::net {

namespace {

// Hello payload: u32 world_size | u32 requested_rank (as int32) | u16 port.
constexpr size_t kHelloBytes = 10;
constexpr size_t kHelloFrameBytes = kFrameHeaderBytes + kHelloBytes;

// How long a connected client gets to deliver its complete hello. A client
// that connects and stalls is dropped at this deadline instead of starving
// every later registration (the old serial accept loop's failure mode).
constexpr double kHelloGraceSeconds = 2.0;

std::vector<uint8_t> encode_hello(int world_size, int requested_rank,
                                  uint16_t data_port) {
  std::vector<uint8_t> payload;
  payload.reserve(kHelloBytes);
  put_u32(payload, static_cast<uint32_t>(world_size));
  put_u32(payload, static_cast<uint32_t>(requested_rank));
  put_u16(payload, data_port);
  return payload;
}

}  // namespace

void RendezvousServer::collect(const std::function<int()>& target,
                               int world_for_hello, double timeout_s) {
  const auto start = Clock::now();

  auto complete_count = [&] {
    int n = 0;
    for (const Registration& reg : parked_) n += reg.complete ? 1 : 0;
    return n;
  };

  // Pumps one half-registered connection: reads whatever hello bytes are
  // ready, parses once the frame is whole. Returns false when the client
  // must be dropped (EOF, malformed frame, bad checksum, stray world).
  // A hello naming a DIFFERENT fixed world size throws — two launchers
  // misconfigured against each other is a config error, not a flaky
  // client, and the fixed-mode tests pin that down.
  auto pump = [&](Registration& reg) -> bool {
    while (reg.buf.size() < kHelloFrameBytes) {
      uint8_t tmp[kHelloFrameBytes];
      const size_t want = kHelloFrameBytes - reg.buf.size();
      const ssize_t n = ::recv(reg.sock.fd(), tmp, want, 0);
      if (n == 0) {
        DKFAC_LOG_WARN << "rendezvous: client closed before finishing hello";
        return false;
      }
      if (n < 0) {
        if (transient_io_errno(errno)) {
          return true;  // not complete yet — keep waiting
        }
        DKFAC_LOG_WARN << "rendezvous: client recv error, dropping";
        return false;
      }
      reg.buf.insert(reg.buf.end(), tmp, tmp + n);
      if (reg.buf.size() >= kFrameHeaderBytes) {
        // Check the header as soon as it is whole so garbage is rejected
        // before we wait for a payload that will never come.
        try {
          FrameHeader::decode(reg.buf.data())
              .check(FrameType::kHello, /*seq=*/0, kHelloBytes,
                     "rendezvous hello");
        } catch (const Error& e) {
          DKFAC_LOG_WARN << "rendezvous: bad hello header (" << e.what()
                         << "), dropping";
          return false;
        }
      }
    }
    const std::span<const uint8_t> payload(reg.buf.data() + kFrameHeaderBytes,
                                           kHelloBytes);
    const FrameHeader header = FrameHeader::decode(reg.buf.data());
    if (crc32(payload) != header.checksum) {
      DKFAC_LOG_WARN << "rendezvous: hello checksum mismatch, dropping";
      return false;
    }
    const int worker_world = static_cast<int>(get_u32(payload, 0));
    if (world_for_hello == kElasticWorld) {
      if (worker_world != kElasticWorld) {
        DKFAC_LOG_WARN << "rendezvous: fixed-world hello (" << worker_world
                       << ") sent to elastic server, dropping";
        return false;
      }
    } else if (worker_world != world_for_hello) {
      reg.sock.close();  // fail the worker fast (EOF) instead of timing out
      throw Error("rendezvous: worker expects world size " +
                  std::to_string(worker_world) + ", server is assembling " +
                  std::to_string(world_for_hello));
    }
    reg.requested_rank = static_cast<int32_t>(get_u32(payload, 4));
    reg.data_port = get_u16(payload, 8);
    reg.complete = true;
    return true;
  };

  while (true) {
    const int tgt = target();
    if (tgt >= 1 && complete_count() >= tgt) return;

    const double elapsed = seconds_since(start);
    if (elapsed >= timeout_s) {
      throw Error("rendezvous: timed out waiting for workers (have " +
                  std::to_string(complete_count()) + " of " +
                  std::to_string(tgt) + ")");
    }

    // Drop connections that stalled past their hello grace.
    const auto now = Clock::now();
    parked_.erase(
        std::remove_if(parked_.begin(), parked_.end(),
                       [&](const Registration& reg) {
                         if (reg.complete || now < reg.hello_deadline) {
                           return false;
                         }
                         DKFAC_LOG_WARN
                             << "rendezvous: client stalled mid-hello, "
                                "dropping";
                         return true;
                       }),
        parked_.end());

    std::vector<pollfd> fds;
    fds.push_back({listener_.fd(), POLLIN, 0});
    for (const Registration& reg : parked_) {
      // Complete registrations are watched too: POLLIN on them means EOF
      // (a parked worker died while the group assembled) or protocol
      // noise — either way the registration is stale.
      fds.push_back({reg.sock.fd(), POLLIN, 0});
    }

    const double left = std::min(timeout_s - elapsed, 0.1);
    const int timeout_ms = std::max(1, static_cast<int>(left * 1000.0));
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw Error("rendezvous: poll failed");
    }
    if (ready == 0) continue;

    // Service existing connections first (indices shift on erase, so walk
    // a copy of the revents keyed by fd order captured above).
    std::vector<size_t> drop;
    for (size_t i = 0; i < parked_.size(); ++i) {
      if ((fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Registration& reg = parked_[i];
      if (!reg.complete) {
        if (!pump(reg)) drop.push_back(i);
        continue;
      }
      uint8_t probe = 0;
      const ssize_t n = ::recv(reg.sock.fd(), &probe, 1, 0);
      if (n < 0 && transient_io_errno(errno)) continue;
      DKFAC_LOG_WARN << "rendezvous: parked worker "
                     << (n == 0 ? "died" : "sent unexpected data")
                     << ", dropping its registration";
      drop.push_back(i);
    }
    for (auto it = drop.rbegin(); it != drop.rend(); ++it) {
      parked_.erase(parked_.begin() + static_cast<ptrdiff_t>(*it));
    }

    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listener_.fd(), nullptr, nullptr);
      if (fd >= 0) {
        Registration reg;
        reg.sock = Socket(fd);
        reg.hello_deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   kHelloGraceSeconds));
        parked_.push_back(std::move(reg));
      }
    }
  }
}

void RendezvousServer::form_group(int world, int generation,
                                  double timeout_s) {
  // The chosen group: the first `world` complete registrations, in
  // registration order (matching the old serial server's semantics).
  std::vector<Registration> group;
  group.reserve(static_cast<size_t>(world));
  parked_.erase(std::remove_if(parked_.begin(), parked_.end(),
                               [&](Registration& reg) {
                                 if (!reg.complete ||
                                     static_cast<int>(group.size()) >= world) {
                                   return false;
                                 }
                                 group.push_back(std::move(reg));
                                 return true;
                               }),
                parked_.end());
  DKFAC_CHECK(static_cast<int>(group.size()) == world)
      << "rendezvous: lost registrations before forming the group";

  // Rank assignment: honour distinct valid requests first, then fill the
  // free slots in registration order.
  std::vector<bool> taken(static_cast<size_t>(world), false);
  for (Registration& reg : group) {
    const int want = reg.requested_rank;
    if (want >= 0 && want < world && !taken[static_cast<size_t>(want)]) {
      reg.rank = want;
      taken[static_cast<size_t>(want)] = true;
    }
  }
  int next_free = 0;
  for (Registration& reg : group) {
    if (reg.rank >= 0) continue;
    while (taken[static_cast<size_t>(next_free)]) ++next_free;
    reg.rank = next_free;
    taken[static_cast<size_t>(next_free)] = true;
  }

  std::vector<uint16_t> ports(static_cast<size_t>(world), 0);
  for (const Registration& reg : group) {
    ports[static_cast<size_t>(reg.rank)] = reg.data_port;
  }

  // Welcome payload: u32 rank | u32 world | u32 generation | u16 ports.
  for (Registration& reg : group) {
    std::vector<uint8_t> payload;
    payload.reserve(12 + 2 * static_cast<size_t>(world));
    put_u32(payload, static_cast<uint32_t>(reg.rank));
    put_u32(payload, static_cast<uint32_t>(world));
    put_u32(payload, static_cast<uint32_t>(generation));
    for (uint16_t p : ports) put_u16(payload, p);
    send_frame(reg.sock, FrameType::kWelcome, /*seq=*/0,
               std::span<const uint8_t>(payload), timeout_s);
  }
}

void RendezvousServer::serve(int world_size, double timeout_s) {
  DKFAC_CHECK(world_size >= 1) << "rendezvous needs at least one worker";
  const auto start = Clock::now();
  collect([world_size] { return world_size; }, world_size, timeout_s);
  const int generation = generation_++;
  form_group(world_size, generation,
             std::max(0.1, timeout_s - seconds_since(start)));
}

int RendezvousServer::serve_generation(const std::function<int()>& expected,
                                       int min_world, double timeout_s) {
  DKFAC_CHECK(min_world >= 1) << "rendezvous needs at least one worker";
  const auto start = Clock::now();
  auto target = [&] {
    const int e = expected();
    if (e < min_world) {
      throw Error("rendezvous: only " + std::to_string(e) +
                  " workers remain, need at least " +
                  std::to_string(min_world));
    }
    return e;
  };
  collect(target, kElasticWorld, timeout_s);
  int complete = 0;
  for (const Registration& reg : parked_) complete += reg.complete ? 1 : 0;
  const int world = std::min(target(), complete);
  if (world < min_world) {
    throw Error("rendezvous: only " + std::to_string(world) +
                " workers registered, need at least " +
                std::to_string(min_world));
  }
  const int generation = generation_++;
  form_group(world, generation,
             std::max(0.1, timeout_s - seconds_since(start)));
  return world;
}

RendezvousInfo rendezvous_connect(const std::string& host, uint16_t port,
                                  int world_size, int requested_rank,
                                  uint16_t data_port, double timeout_s) {
  DKFAC_CHECK(world_size >= 1 || world_size == kElasticWorld)
      << "world size must be positive (or kElasticWorld)";
  const auto start = Clock::now();
  auto remaining = [&] {
    const double left = timeout_s - seconds_since(start);
    if (left <= 0.0) throw Error("rendezvous: timed out waiting for welcome");
    return left;
  };

  Socket sock = Socket::connect_to(host, port, remaining());
  const std::vector<uint8_t> hello =
      encode_hello(world_size, requested_rank, data_port);
  send_frame(sock, FrameType::kHello, /*seq=*/0,
             std::span<const uint8_t>(hello), remaining());

  std::vector<uint8_t> welcome;
  recv_frame(sock, FrameType::kWelcome, /*seq=*/0, welcome, remaining());
  DKFAC_CHECK(welcome.size() >= 12)
      << "rendezvous: malformed welcome (" << welcome.size() << " bytes)";

  RendezvousInfo info;
  info.rank = static_cast<int32_t>(get_u32(welcome, 0));
  info.world_size = static_cast<int>(get_u32(welcome, 4));
  info.generation = static_cast<int>(get_u32(welcome, 8));
  DKFAC_CHECK(welcome.size() ==
              12 + 2 * static_cast<size_t>(info.world_size))
      << "rendezvous: malformed welcome (" << welcome.size() << " bytes for "
      << "world " << info.world_size << ")";
  if (world_size != kElasticWorld) {
    DKFAC_CHECK(info.world_size == world_size)
        << "rendezvous: server assembled world size " << info.world_size
        << ", worker expected " << world_size;
  }
  DKFAC_CHECK(info.rank >= 0 && info.rank < info.world_size)
      << "rendezvous: server assigned out-of-range rank " << info.rank;
  info.peer_ports.resize(static_cast<size_t>(info.world_size));
  for (int r = 0; r < info.world_size; ++r) {
    info.peer_ports[static_cast<size_t>(r)] =
        get_u16(welcome, 12 + 2 * static_cast<size_t>(r));
  }
  return info;
}

}  // namespace dkfac::comm::net

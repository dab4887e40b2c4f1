#include "comm/net/socket_comm.hpp"

#include "comm/net/faultnet.hpp"
#include "comm/net/rendezvous.hpp"
#include "common/error.hpp"

namespace dkfac::comm::net {

namespace {

inline std::span<const uint8_t> bytes_of(std::span<const float> s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size_bytes()};
}

}  // namespace

SocketComm::SocketComm(const SocketOptions& options) : options_(options) {
  // Arm a scripted fault plan from DKFAC_FAULT_PLAN if one is set (forked
  // rank processes inherit the variable from the launcher). One relaxed
  // load per process after the first call; no plan → no behavior change.
  faultnet::load_from_env();
  DKFAC_CHECK(options_.elastic || options_.world_size >= 1)
      << "SocketComm needs at least one rank";
  size_ = options_.elastic ? 1 : options_.world_size;
  if (!options_.elastic && size_ == 1 && options_.rendezvous_port == 0) {
    rank_ = 0;  // standalone single rank — no server, no peers
    return;
  }
  DKFAC_CHECK(options_.rendezvous_port != 0)
      << "SocketComm needs a rendezvous port for world size " << size_;

  // The data listener must exist before registration: peers may dial the
  // advertised port the moment the server publishes it.
  ListenSocket listener;
  const double rdv_timeout = options_.rendezvous_timeout_s > 0.0
                                 ? options_.rendezvous_timeout_s
                                 : options_.timeout_s;
  const RendezvousInfo info = rendezvous_connect(
      options_.host, options_.rendezvous_port,
      options_.elastic ? kElasticWorld : options_.world_size,
      options_.requested_rank, listener.port(), rdv_timeout);
  rank_ = info.rank;
  size_ = info.world_size;
  generation_ = info.generation;
  // rank= fault rules target the data-plane rank just assigned; until here
  // only rank-agnostic rules could fire.
  if (faultnet::active()) faultnet::set_rank(rank_);

  peers_.resize(static_cast<size_t>(size_));
  send_seq_.assign(static_cast<size_t>(size_), 0);
  recv_seq_.assign(static_cast<size_t>(size_), 0);

  // Full mesh: dial every lower rank (their listeners predate the welcome,
  // so connects succeed via the backlog even before they accept), then
  // accept every higher one. Each connection opens with a versioned
  // kHello naming the dialer's rank and the rendezvous generation — accept
  // order is scheduling noise, the hello pins the identity, and a stale
  // connection from a previous formation is rejected by its generation.
  std::vector<uint8_t> hello;
  put_u32(hello, static_cast<uint32_t>(rank_));
  put_u32(hello, static_cast<uint32_t>(generation_));
  for (int r = 0; r < rank_; ++r) {
    try {
      Socket sock = Socket::connect_to(
          options_.host, info.peer_ports[static_cast<size_t>(r)],
          options_.timeout_s);
      stats_.wire_sent_bytes += send_frame(
          sock, FrameType::kHello, /*seq=*/0, std::span<const uint8_t>(hello),
          options_.timeout_s);
      send_seq_[static_cast<size_t>(r)] = 1;
      peers_[static_cast<size_t>(r)] = std::move(sock);
    } catch (const Error& e) {
      throw PeerFailure(r, e.what());
    }
  }
  int missing = size_ - rank_ - 1;
  while (missing > 0) {
    Socket sock = listener.accept(options_.timeout_s);
    std::vector<uint8_t> peer_hello;
    stats_.wire_recv_bytes += recv_frame(sock, FrameType::kHello, /*seq=*/0,
                                         peer_hello, options_.timeout_s);
    DKFAC_CHECK(peer_hello.size() == 8) << "malformed peer hello";
    const int r = static_cast<int32_t>(get_u32(peer_hello, 0));
    const int gen = static_cast<int32_t>(get_u32(peer_hello, 4));
    if (gen != generation_) {
      // A dialer from a previous formation raced the re-rendezvous; its
      // mesh is obsolete — drop the connection, keep accepting.
      continue;
    }
    DKFAC_CHECK(r > rank_ && r < size_ &&
                !peers_[static_cast<size_t>(r)].valid())
        << "unexpected peer hello from rank " << r;
    recv_seq_[static_cast<size_t>(r)] = 1;
    peers_[static_cast<size_t>(r)] = std::move(sock);
    --missing;
  }

  // Everyone reaches here only with a complete, verified mesh.
  barrier();
}

Socket& SocketComm::peer(int r) {
  DKFAC_CHECK(r >= 0 && r < size_ && r != rank_)
      << "no peer connection for rank " << r;
  Socket& sock = peers_[static_cast<size_t>(r)];
  DKFAC_CHECK(sock.valid()) << "connection to rank " << r << " is down";
  return sock;
}

void SocketComm::transfer(int to, std::span<const uint8_t> out, int from,
                          std::vector<float>& in) {
  try {
    Socket& to_sock = peer(to);
    Socket& from_sock = peer(from);
    const size_t sent = kFrameHeaderBytes + out.size();
    const size_t moved = transfer_frames(
        &to_sock, FrameType::kData, send_seq_[static_cast<size_t>(to)]++, out,
        &from_sock, FrameType::kData, recv_seq_[static_cast<size_t>(from)]++,
        in, options_.timeout_s);
    stats_.wire_sent_bytes += sent;
    stats_.wire_recv_bytes += moved - sent;
  } catch (const FrameError& e) {
    // A full-duplex step spans two links: blame the peer of the side that
    // failed.
    throw PeerFailure(e.side() == FrameSide::kSend ? to : from, e.what());
  } catch (const Error& e) {
    // A link found down before any frame moved: blame the receive peer.
    throw PeerFailure(from, e.what());
  }
}

Communicator::Views SocketComm::exchange(std::span<const float> send) {
  // Ring circulation: step s forwards the block received at step s-1 (this
  // rank's own at s = 0), so after p-1 steps every block has visited every
  // rank. Each incoming block lands straight in its rank's buffer, sized by
  // its frame; this rank's view is `send` itself, never copied.
  const int p = size_;
  const int next = (rank_ + 1) % p;
  const int prev = (rank_ - 1 + p) % p;
  blocks_.resize(static_cast<size_t>(p));
  views_.resize(static_cast<size_t>(p));
  views_[static_cast<size_t>(rank_)] = send;
  for (int s = 0; s < p - 1; ++s) {
    const auto send_block = static_cast<size_t>((rank_ - s + p) % p);
    const auto recv_block = static_cast<size_t>((rank_ - s - 1 + p) % p);
    transfer(next, bytes_of(views_[send_block]), prev, blocks_[recv_block]);
    views_[recv_block] = blocks_[recv_block];
  }
  return views_;
}

}  // namespace dkfac::comm::net

#include "comm/net/socket_comm.hpp"

#include <algorithm>

#include "comm/net/faultnet.hpp"
#include "comm/net/rendezvous.hpp"
#include "common/error.hpp"
#include "obs/trace.hpp"

namespace dkfac::comm::net {

namespace {

constexpr int kNoPeer = -1;  // transfer(): no frame on this side

inline std::span<const uint8_t> bytes_of(std::span<const float> s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size_bytes()};
}

/// Chunk boundaries for the pipelined ring: a pure function of (n, K), so
/// every rank cuts identical chunks. The first n % K chunks get one extra
/// element.
std::vector<size_t> chunk_offsets(size_t n, int chunks) {
  std::vector<size_t> offsets(static_cast<size_t>(chunks) + 1, 0);
  const size_t base = n / static_cast<size_t>(chunks);
  const size_t rem = n % static_cast<size_t>(chunks);
  for (int k = 0; k < chunks; ++k) {
    offsets[static_cast<size_t>(k) + 1] =
        offsets[static_cast<size_t>(k)] + base +
        (static_cast<size_t>(k) < rem ? 1 : 0);
  }
  return offsets;
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
                          FrameDst in, FrameType type) {
  try {
    Socket* to_sock = nullptr;
    Socket* from_sock = nullptr;
    uint32_t send_seq = 0;
    uint32_t recv_seq = 0;
    size_t sent = 0;
    if (to != kNoPeer) {
      to_sock = &peer(to);
      send_seq = send_seq_[static_cast<size_t>(to)]++;
      sent = kFrameHeaderBytes + out.size();
    }
    if (from != kNoPeer) {
      from_sock = &peer(from);
      recv_seq = recv_seq_[static_cast<size_t>(from)]++;
    }
    const size_t moved = transfer_frames(to_sock, type, send_seq, out,
                                         from_sock, type, recv_seq, in,
                                         options_.timeout_s);
    stats_.wire_sent_bytes += sent;
    stats_.wire_recv_bytes += moved - sent;
  } catch (const FrameError& e) {
    // A full-duplex step spans two links: blame the peer of the side that
    // failed.
    throw PeerFailure(e.side() == FrameSide::kSend ? to : from, e.what());
  } catch (const Error& e) {
    // A link found down before any frame moved: blame the receive peer
    // when there is one.
    throw PeerFailure(from != kNoPeer ? from : to, e.what());
  }
}

SocketComm::AllreduceAlgo SocketComm::allreduce_algorithm(uint64_t bytes) const {
  // Both algorithms produce the identical rank-order fold, so this choice
  // is pure performance: circulation pays (p-1)·n bandwidth at one round
  // of latency, the pipelined ring ~2·n bandwidth at two chain traversals.
  const double circ = options_.cost.circulating_allreduce_time(bytes, size_);
  const double pipe = options_.cost.pipelined_allreduce_time(bytes, size_);
  return circ <= pipe ? AllreduceAlgo::kRingCirculation
                      : AllreduceAlgo::kPipelinedRing;
}

void SocketComm::allreduce(std::span<float> data, ReduceOp op) {
  stats_.allreduce_calls++;
  stats_.allreduce_bytes += data.size_bytes();
  // Zero-length reductions carry no payload and (unlike ThreadComm, where
  // every collective doubles as a barrier) need no synchronisation.
  if (size_ == 1 || data.empty()) return;
  const bool circulation =
      allreduce_algorithm(data.size_bytes()) == AllreduceAlgo::kRingCirculation;
  // The span is named after the algorithm the cost model picked, so the
  // timeline shows the choice per call, not just the op.
  DKFAC_TRACE_SCOPE_ID(
      span, circulation ? DKFAC_TRACE_INTERN("socket.allreduce.ring")
                        : DKFAC_TRACE_INTERN("socket.allreduce.pipelined_ring"));
  const uint64_t wire_before = stats_.wire_sent_bytes + stats_.wire_recv_bytes;
  if (circulation) {
    ring_circulation_allreduce(data, op);
  } else {
    pipelined_ring_allreduce(data, op);
  }
  if (span.active()) {
    span.set_arg("bytes", data.size_bytes());
    span.set_arg("wire_bytes", stats_.wire_sent_bytes +
                                   stats_.wire_recv_bytes - wire_before);
  }
}

void SocketComm::ring_circulation_allreduce(std::span<float> data, ReduceOp op) {
  // Every rank's contribution circulates the ring (p-1 full-duplex steps),
  // then each rank folds all p blocks locally in rank order — exactly
  // ThreadComm's reduction, so the result is bitwise identical to the
  // thread backend regardless of world size.
  const size_t n = data.size();
  const int p = size_;
  const int next = (rank_ + 1) % p;
  const int prev = (rank_ - 1 + p) % p;

  circ_blocks_.resize(static_cast<size_t>(p) * n);
  std::copy(data.begin(), data.end(),
            circ_blocks_.begin() + static_cast<size_t>(rank_) * n);
  for (int s = 0; s < p - 1; ++s) {
    const auto send_block = static_cast<size_t>((rank_ - s + p) % p);
    const auto recv_block = static_cast<size_t>((rank_ - s - 1 + p) % p);
    // Every rank's block is the same n floats, so the incoming block lands
    // directly in its circulation slot — no intermediate receive buffer,
    // no memcpy (a size-mismatched peer fails inside the exchange).
    transfer(next,
             bytes_of(std::span<const float>(
                 circ_blocks_.data() + send_block * n, n)),
             prev, std::span<float>(circ_blocks_.data() + recv_block * n, n));
  }

  // Rank-order fold — the shared helpers ThreadComm's allreduce uses, so
  // cross-backend bitwise parity is structural.
  std::copy(circ_blocks_.begin(), circ_blocks_.begin() + static_cast<ptrdiff_t>(n),
            data.begin());
  for (int r = 1; r < p; ++r) {
    fold_contribution(
        data,
        std::span<const float>(circ_blocks_.data() + static_cast<size_t>(r) * n,
                               n),
        op);
  }
  finish_reduce(data, op, p);
}

void SocketComm::pipelined_ring_allreduce(std::span<float> data, ReduceOp op) {
  // Reduce phase: chunks stream down the chain 0 → 1 → ... → p-1, each
  // rank folding its contribution onto the incoming partial — the fold
  // stays anchored at rank 0, preserving ThreadComm's rank order (a
  // classic ring reduce-scatter would rotate it per chunk and break
  // cross-backend bitwise parity). Allgather phase: the reduced chunks
  // stream back around the ring p-1 → 0 → ... → p-2. Both phases are
  // acyclic chains, so plain blocking frame I/O cannot deadlock however
  // large the payload.
  const size_t n = data.size();
  const int p = size_;
  const int chunks = options_.cost.pipeline_chunk_count(data.size_bytes(), p);
  const std::vector<size_t> offsets = chunk_offsets(n, chunks);
  auto chunk = [&](std::span<float> buf, int k) {
    return buf.subspan(offsets[static_cast<size_t>(k)],
                       offsets[static_cast<size_t>(k) + 1] -
                           offsets[static_cast<size_t>(k)]);
  };

  if (rank_ == 0) {
    for (int k = 0; k < chunks; ++k) {
      transfer(1, bytes_of(chunk(data, k)), kNoPeer, {});
    }
  } else {
    for (int k = 0; k < chunks; ++k) {
      const std::span<float> own = chunk(data, k);
      chain_scratch_.resize(own.size());
      const std::span<float> partial(chain_scratch_.data(), own.size());
      transfer(kNoPeer, {}, rank_ - 1, partial);
      // The incoming partial already folds ranks 0..rank-1 in order;
      // appending this rank keeps the shared fold's rank-order semantics.
      fold_contribution(partial, own, op);
      if (rank_ < p - 1) {
        transfer(rank_ + 1, bytes_of(partial), kNoPeer, {});
      } else {
        finish_reduce(partial, op, p);
        std::copy(partial.begin(), partial.end(), own.begin());
      }
    }
  }

  // Distribution chain p-1 → 0 → 1 → ... → p-2; rank p-2 is the sink.
  if (rank_ == p - 1) {
    for (int k = 0; k < chunks; ++k) {
      transfer(0, bytes_of(chunk(data, k)), kNoPeer, {});
    }
  } else {
    const int source = rank_ == 0 ? p - 1 : rank_ - 1;
    for (int k = 0; k < chunks; ++k) {
      transfer(kNoPeer, {}, source, chunk(data, k));
      if (rank_ <= p - 3) {
        transfer(rank_ + 1, bytes_of(chunk(data, k)), kNoPeer, {});
      }
    }
  }
}

void SocketComm::allgather_into(std::span<const float> send,
                                std::vector<float>& recv) {
  stats_.allgather_calls++;
  stats_.allgather_bytes += send.size_bytes();
  if (size_ == 1) {
    recv.assign(send.begin(), send.end());
    return;
  }
  DKFAC_TRACE_SCOPE_NAMED(span, "socket.allgather.ring");
  const uint64_t wire_before = stats_.wire_sent_bytes + stats_.wire_recv_bytes;

  // Ring circulation with variable block sizes — the frame length prefix
  // carries each block's size, so no separate size exchange is needed, and
  // each incoming block is appended straight into its emptied
  // gather_blocks_ entry. The entries are members so steady-state
  // iterations (same per-rank sizes every exchange) reuse their
  // capacities — no allocation once warm.
  const int p = size_;
  const int next = (rank_ + 1) % p;
  const int prev = (rank_ - 1 + p) % p;
  gather_blocks_.resize(static_cast<size_t>(p));
  const std::span<const uint8_t> own = bytes_of(send);
  gather_blocks_[static_cast<size_t>(rank_)].assign(own.begin(), own.end());
  for (int s = 0; s < p - 1; ++s) {
    const auto send_block = static_cast<size_t>((rank_ - s + p) % p);
    std::vector<uint8_t>& block =
        gather_blocks_[static_cast<size_t>((rank_ - s - 1 + p) % p)];
    block.clear();
    transfer(next, gather_blocks_[send_block], prev, block);
    DKFAC_CHECK(block.size() % sizeof(float) == 0)
        << "allgather block not float-aligned";
  }

  size_t total = 0;
  for (const auto& b : gather_blocks_) total += b.size();
  // resize + positional copy so a warm caller-owned buffer is refilled
  // without touching the heap.
  recv.resize(total / sizeof(float));
  auto* dst = reinterpret_cast<uint8_t*>(recv.data());
  for (const auto& b : gather_blocks_) dst = std::copy(b.begin(), b.end(), dst);
  if (span.active()) {
    span.set_arg("bytes", send.size_bytes());
    span.set_arg("wire_bytes", stats_.wire_sent_bytes +
                                   stats_.wire_recv_bytes - wire_before);
  }
}

void SocketComm::broadcast(std::span<float> data, int root) {
  DKFAC_CHECK(root >= 0 && root < size_)
      << "broadcast root " << root << " out of range for size " << size_;
  stats_.broadcast_calls++;
  // Cross-backend payload convention: the root injected the payload, the
  // other ranks contributed nothing (see CommStats).
  if (rank_ == root) stats_.broadcast_bytes += data.size_bytes();
  if (size_ == 1) return;
  DKFAC_TRACE_SCOPE_NAMED(span, "socket.broadcast.tree");
  const uint64_t wire_before = stats_.wire_sent_bytes + stats_.wire_recv_bytes;

  // Binomial tree over virtual ranks (vrank 0 = root).
  const int p = size_;
  const int vrank = (rank_ - root + p) % p;
  unsigned mask = 1;
  while (mask < static_cast<unsigned>(p)) {
    if (vrank & static_cast<int>(mask)) {
      const int src = (vrank - static_cast<int>(mask) + root) % p;
      transfer(kNoPeer, {}, src, data);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + static_cast<int>(mask) < p) {
      const int dst = (vrank + static_cast<int>(mask) + root) % p;
      transfer(dst, bytes_of(data), kNoPeer, {});
    }
    mask >>= 1;
  }
  if (span.active()) {
    span.set_arg("bytes", data.size_bytes());
    span.set_arg("wire_bytes", stats_.wire_sent_bytes +
                                   stats_.wire_recv_bytes - wire_before);
  }
}

void SocketComm::barrier() {
  if (size_ == 1) return;
  DKFAC_TRACE_SCOPE("socket.barrier");
  // Dissemination barrier: ⌈log₂ p⌉ full-duplex rounds; after round k every
  // rank has transitively heard from all ranks within distance 2^(k+1).
  const int p = size_;
  for (int d = 1; d < p; d <<= 1) {
    const int to = (rank_ + d) % p;
    const int from = (rank_ - d + p) % p;
    const float token = static_cast<float>(d);
    float got = 0.0f;
    transfer(to, bytes_of(std::span<const float>(&token, 1)), from,
             std::span<float>(&got, 1), FrameType::kBarrier);
    DKFAC_CHECK(got == token)
        << "barrier round mismatch: expected " << token << ", got " << got
        << " (collective sequence desync?)";
  }
}

}  // namespace dkfac::comm::net

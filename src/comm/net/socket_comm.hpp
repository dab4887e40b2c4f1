// Multi-process TCP collective backend.
//
// SocketComm is the Communicator transport (see communicator.hpp) between
// genuinely separate processes over localhost TCP — the backend that turns
// this reproduction from a simulation of distribution (N ranks as N
// threads) into an actually distributed system. Construction rendezvouses
// through a net::RendezvousServer (rank assignment + peer table, see
// net/rendezvous.hpp), then builds a full peer mesh: rank r dials every
// lower rank and accepts from every higher one, each connection opening
// with a versioned kHello so a mismatched build is rejected up front.
//
// The transport only moves bytes; Communicator folds, checks and counts.
// Its one algorithm is the exchange, a ring circulation: p-1 full-duplex
// ring steps, each forwarding the block received the step before, so every
// rank's block reaches every rank (the frame length prefix carries each
// block's size, an empty one included). Incoming blocks land in per-rank
// buffers that stay valid as views until the next exchange. Every
// collective rides it:
//
//   allreduce, allgather   each rank sends (p-1)·n bytes, where a classic
//                ring allreduce (reduce-scatter + allgather) sends
//                2·(p-1)/p·n; but that ring folds each chunk in a ROTATED
//                rank order, so it cannot match the thread backend bit for
//                bit. Up to p = 4 the difference is at most 2×.
//   broadcast    only the root's block is non-empty: p-1 steps, where a
//                binomial tree takes ⌈log₂ p⌉ levels. A run broadcasts only
//                its initial parameters, before the first step.
//   barrier      every block is empty: p-1 steps of header-only frames.
//
// Every step goes through the wire's one frame pump (transfer_frames) and
// sends and receives in full duplex, so it cannot deadlock when a payload
// outgrows the kernel socket buffers. Every frame runs under
// Options::timeout_s — a dead peer or a desynchronised collective surfaces
// as a dkfac::Error, never a hang.
//
// CommStats: Communicator counts the logical payload; SocketComm fills
// only wire_sent_bytes / wire_recv_bytes, every byte this rank really put
// on / took off the wire, frame headers included — so packing savings
// (SymmetricPacker) and fusion show up in real transport bytes, not just
// in modelled ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/cost_model.hpp"
#include "comm/net/wire.hpp"

namespace dkfac::comm::net {

struct SocketOptions {
  /// Rendezvous server address (the launcher's, normally loopback).
  std::string host = "127.0.0.1";
  uint16_t rendezvous_port = 0;
  int world_size = 1;
  /// Rank to request from the rendezvous (-1 → server assigns).
  int requested_rank = -1;
  /// Elastic membership: the rendezvous server (not this worker) decides
  /// the world size of the group being formed — `world_size` is ignored
  /// and `requested_rank` becomes a hint. The welcome's generation counter
  /// is embedded in every peer hello so a connection from a previous
  /// formation can never leak into the new mesh.
  bool elastic = false;
  /// Deadline for every blocking network operation (rendezvous, peer
  /// dial-up, and each collective's sends/receives).
  double timeout_s = 60.0;
  /// Separate deadline for the rendezvous wait alone (0 → timeout_s).
  /// Elastic workers set it LONGER than the collective deadline: a
  /// re-registration must outwait every survivor's in-flight collective
  /// timing out before the shrunk group can assemble.
  double rendezvous_timeout_s = 0.0;
  /// Fabric model reported by cost_model(): the fusion/eager tuning of
  /// everything layered above derives from it.
  CostModel cost = CostModel::loopback_tcp();
};

class SocketComm final : public Communicator {
 public:
  /// Rendezvouses and builds the peer mesh; returns only once every
  /// connection is up and verified (the constructor ends with a barrier).
  explicit SocketComm(const SocketOptions& options);

  int rank() const override { return rank_; }
  int size() const override { return size_; }
  /// Rendezvous generation this mesh was formed in (0 for non-elastic).
  int generation() const { return generation_; }
  const CostModel& cost_model() const override { return options_.cost; }

 protected:
  Views exchange(std::span<const float> send) override;
  void end_exchange() override {}

 private:
  Socket& peer(int r);
  /// One ring step (see transfer_frames): sends `out` to rank `to` while
  /// receiving rank `from`'s frame into `in`, resized to its payload. Keeps
  /// the per-peer sequence counters and the wire-byte accounting. A
  /// transport failure rethrows as PeerFailure naming the peer of the side
  /// that failed — the typed signal elastic callers use to trigger
  /// re-formation.
  void transfer(int to, std::span<const uint8_t> out, int from,
                std::vector<float>& in);

  SocketOptions options_;
  int rank_ = 0;
  int size_ = 1;
  int generation_ = 0;
  std::vector<Socket> peers_;        // by rank; the self slot stays invalid
  std::vector<uint32_t> send_seq_;   // per-peer frames sent
  std::vector<uint32_t> recv_seq_;   // per-peer frames received
  // The exchange's received blocks (by rank; this rank's stays empty) and
  // its views, reused across collectives — the gradient/factor exchange
  // hits them every iteration, so steady state must not allocate (each
  // block converges to the largest its rank sends and stays there).
  std::vector<std::vector<float>> blocks_;
  std::vector<std::span<const float>> views_;
};

}  // namespace dkfac::comm::net

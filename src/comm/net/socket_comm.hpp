// Multi-process TCP collective backend.
//
// SocketComm implements the full Communicator surface (allreduce /
// allgather / broadcast / barrier) between genuinely separate processes
// over localhost TCP — the backend that turns this reproduction from a
// simulation of distribution (N ranks as N threads) into an actually
// distributed system. Construction rendezvouses through a
// net::RendezvousServer (rank assignment + peer table, see
// net/rendezvous.hpp), then builds a full peer mesh: rank r dials every
// lower rank and accepts from every higher one, each connection opening
// with a versioned kHello so a mismatched build is rejected up front.
//
// Algorithms — all chosen per message size via the backend's CostModel,
// and all reducing in EXACTLY ThreadComm's order (a left fold over ranks
// 0..p-1), so results are bitwise identical across backends and the
// algorithm switch can never change numerics:
//
//   allreduce, small payloads   ring circulation: p-1 full-duplex ring
//                               steps gather every rank's contribution,
//                               then each rank folds locally in rank
//                               order — ThreadComm's reduction verbatim,
//                               at one latency per step.
//   allreduce, large payloads   pipelined ring: chunks stream down the
//                               ring 0 → 1 → ... → p-1, each rank adding
//                               its contribution (reduce phase: the rank-
//                               order fold), then the reduced chunks
//                               stream back around p-1 → 0 → ... → p-2
//                               (allgather phase). A classic ring
//                               reduce-scatter folds each chunk in a
//                               ROTATED rank order — cheap, but not
//                               bitwise-reproducible against the thread
//                               backend — so the reduce phase keeps the
//                               fold anchored at rank 0 and pipelines
//                               chunks to recover the bandwidth. Both
//                               phases are acyclic chains, hence
//                               deadlock-free under blocking I/O at any
//                               payload size.
//   allgather                   ring circulation (variable block sizes —
//                               the frame length prefix carries each
//                               block's size), concatenated in rank order.
//   broadcast                   binomial tree rooted at `root`.
//   barrier                     dissemination (⌈log₂ p⌉ rounds).
//
// Every step goes through the wire's one frame pump (transfer_frames).
// Cyclic steps (circulation, dissemination) send and receive in full
// duplex so they cannot deadlock when a payload outgrows the kernel socket
// buffers; chain phases send or receive one frame at a time. Every frame
// runs under Options::timeout_s — a dead peer or a desynchronised
// collective surfaces as a dkfac::Error, never a hang.
//
// CommStats: the logical counters follow the cross-backend payload
// convention (see communicator.hpp); wire_sent_bytes / wire_recv_bytes
// additionally account every byte this rank really put on / took off the
// wire, frame headers included — so packing savings (SymmetricPacker) and
// fusion show up in real transport bytes, not just in modelled ones.
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
  /// Fabric model driving algorithm selection and (via cost_model())
  /// the fusion/eager tuning of everything layered above.
  CostModel cost = CostModel::loopback_tcp();
};

class SocketComm final : public Communicator {
 public:
  using Communicator::allreduce;
  using Communicator::broadcast;

  /// Rendezvouses and builds the peer mesh; returns only once every
  /// connection is up and verified (the constructor ends with a barrier).
  explicit SocketComm(const SocketOptions& options);

  int rank() const override { return rank_; }
  int size() const override { return size_; }
  /// Rendezvous generation this mesh was formed in (0 for non-elastic).
  int generation() const { return generation_; }
  const CostModel& cost_model() const override { return options_.cost; }

  void allreduce(std::span<float> data, ReduceOp op) override;
  void allgather_into(std::span<const float> send,
                      std::vector<float>& recv) override;
  void broadcast(std::span<float> data, int root) override;
  void barrier() override;

  enum class AllreduceAlgo { kRingCirculation, kPipelinedRing };
  /// The algorithm allreduce() will pick for a payload of `bytes` — a pure
  /// function of (bytes, world size, cost model), identical on all ranks.
  AllreduceAlgo allreduce_algorithm(uint64_t bytes) const;

 private:
  Socket& peer(int r);
  /// The one framed step on peer links (see transfer_frames): sends `out`
  /// to rank `to` while receiving from rank `from` into `in`; a rank of -1
  /// drops that side. Keeps the per-peer sequence counters and the
  /// wire-byte accounting. A transport failure rethrows as PeerFailure
  /// naming the receiving peer, or the peer sent to when nothing is
  /// received — the typed signal elastic callers use to trigger
  /// re-formation.
  void transfer(int to, std::span<const uint8_t> out, int from, FrameDst in,
                FrameType type = FrameType::kData);

  void ring_circulation_allreduce(std::span<float> data, ReduceOp op);
  void pipelined_ring_allreduce(std::span<float> data, ReduceOp op);

  SocketOptions options_;
  int rank_ = 0;
  int size_ = 1;
  int generation_ = 0;
  std::vector<Socket> peers_;        // by rank; the self slot stays invalid
  std::vector<uint32_t> send_seq_;   // per-peer frames sent
  std::vector<uint32_t> recv_seq_;   // per-peer frames received
  // Scratch reused across collectives — the gradient/factor exchange hits
  // these paths every iteration, so steady state must not allocate (the
  // buffers converge to the largest payload seen and stay there).
  std::vector<float> circ_blocks_;   // p·n circulation blocks (small path)
  std::vector<float> chain_scratch_; // one chunk's running partial
  std::vector<std::vector<uint8_t>> gather_blocks_;  // allgather, by rank
};

}  // namespace dkfac::comm::net

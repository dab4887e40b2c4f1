// Collective communication interface (the Horovod substitute).
//
// The paper's Algorithm 1 is expressed entirely in terms of three
// collectives — allreduce, allgather, broadcast — plus rank/size queries.
// Production Horovod backs them with NCCL/MPI rings. Here Communicator
// defines each collective once for every backend, as one exchange that
// shows every rank's block to every rank: an allreduce folds the blocks in
// rank order, so all ranks and both backends compute the same bits; an
// allgather concatenates them; a broadcast is an exchange in which only the
// root contributes, and a barrier one in which no rank does. Communicator
// also owns the length and root checks, the size-1 shortcut, the CommStats
// payload counters and one `comm.*` span per call. An allreduce, broadcast
// or barrier checks every block on every rank and throws only after the
// exchange has ended, so a mismatched call (wrong length, wrong root, a
// barrier against an allreduce) is a typed dkfac::Error and the next
// collective starts in step. A backend implements the exchange alone (the
// protected transport). Backends: LocalGroup/ThreadComm, N ranks as N
// threads (thread_comm.hpp), and the multi-process TCP net::SocketComm
// (net/socket_comm.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "comm/codec.hpp"
#include "comm/cost_model.hpp"
#include "common/error.hpp"
#include "tensor/tensor.hpp"

namespace dkfac::comm {

/// A collective failed because a specific peer died or wedged (connection
/// closed, deadline expired, mesh link down). Subclasses Error so every
/// existing catch site keeps working; elastic callers catch this type to
/// learn WHICH rank failed and trigger re-formation instead of aborting.
class PeerFailure : public Error {
 public:
  PeerFailure(int rank, const std::string& what)
      : Error("peer rank " + std::to_string(rank) + ": " + what),
        rank_(rank) {}

  /// The rank whose connection failed.
  int rank() const { return rank_; }

 private:
  int rank_;
};

/// A cooperative group-change request, not a failure: the elastic
/// supervisor has a joiner parked at the rendezvous that can only be
/// admitted at a generation boundary, so running ranks are asked (via
/// SIGUSR1 → TrainConfig::reform_poll) to tear down their mesh and
/// re-rendezvous. Elastic workers catch it exactly like PeerFailure minus
/// the casualty — the regrown group resumes from the durable checkpoint.
class RegrowRequest : public Error {
 public:
  explicit RegrowRequest(const std::string& what) : Error(what) {}
};

/// Reduction applied by allreduce.
enum class ReduceOp {
  kSum,
  kAverage,  // sum / size — what gradient and factor exchange use
  kMax,
};

/// Background-pipeline counters. Shared by AsyncExecutor::stats() and
/// CommStats so the derived "overlap won" metric has a single definition.
struct AsyncCommStats {
  uint64_t submitted = 0;       ///< tensors accepted by submit()
  uint64_t batches = 0;         ///< fused execute() calls on the worker
  double comm_seconds = 0.0;    ///< comm.async.flush spans: worker collectives
  double wait_seconds = 0.0;    ///< comm.async.wait spans: main thread blocked

  /// Communication hidden behind compute: collective time the main thread
  /// did not spend blocked for.
  double overlap_won_seconds() const {
    return comm_seconds > wait_seconds ? comm_seconds - wait_seconds : 0.0;
  }
};

/// Per-rank communication counters (drives the comm-volume ablation bench).
///
/// Communicator's collective wrappers own the call and logical byte
/// counters, one payload-contribution convention for every backend:
/// allreduce counts this rank's buffer (at the encoded size for a 16-bit
/// payload), allgather counts this rank's send, broadcast counts the
/// payload at the root only. Summing any counter across ranks therefore
/// gives the unique payload injected into that collective. Backends never
/// touch them; what a backend really moved (headers, forwarding hops) is
/// its wire counters' job below.
struct CommStats {
  uint64_t allreduce_calls = 0;
  uint64_t allreduce_bytes = 0;
  uint64_t allgather_calls = 0;
  uint64_t allgather_bytes = 0;
  uint64_t broadcast_calls = 0;
  uint64_t broadcast_bytes = 0;

  // Real bytes on the wire for this rank, frame headers included — filled
  // by network backends (net::SocketComm). Shared-memory backends move no
  // wire bytes and leave these 0. Packing savings (SymmetricPacker) and
  // fusion show up here as actual transport-byte reductions.
  uint64_t wire_sent_bytes = 0;
  uint64_t wire_recv_bytes = 0;

  // Kronecker-factor exchange accounting (filled by KfacPreconditioner) —
  // the full reduction chain dense → packed → encoded: the bytes a dense
  // n×n FP32 factor allreduce would have shipped, the bytes after packing
  // each factor's upper triangle, and the bytes that actually entered the
  // collective after the precision codec (16-bit payloads when
  // factor_precision is fp16/bf16; equal to packed at fp32).
  // factor_encoded_bytes is already included in allreduce_bytes, so
  // dense − encoded is the total reduction won.
  uint64_t factor_dense_bytes = 0;
  uint64_t factor_packed_bytes = 0;
  uint64_t factor_encoded_bytes = 0;

  // Decomposition-allgather accounting: the bytes this rank's dense
  // decomposition send would take vs the bytes it actually sent
  // (triangle-packed explicit inverses, codec-encoded at 16 bits). Same
  // per-rank-send convention as allgather_bytes, which these are part of.
  uint64_t decomp_dense_bytes = 0;
  uint64_t decomp_packed_bytes = 0;

  // Comm-arena allocator traffic, summed by the trainer across every
  // per-step comm-path arena (the preconditioner's factor slot arena and
  // the fusion buffers' staging arenas). steady_state_allocs counts heap
  // allocations after warm-up was declared over — the zero-copy contract
  // says it stays 0, and the trainer integration test asserts it.
  uint64_t arena_bytes_reserved = 0;
  uint64_t steady_state_allocs = 0;

  // Async-overlap accounting, filled by the trainer from AsyncExecutor
  // when overlap_comm is on.
  AsyncCommStats async;

  uint64_t total_bytes() const {
    return allreduce_bytes + allgather_bytes + broadcast_bytes;
  }
};

class Communicator {
 public:
  virtual ~Communicator() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// In-place elementwise reduction across all ranks. Deterministic: every
  /// rank folds every contribution in ascending rank order. Every rank must
  /// pass the same length; otherwise every rank throws dkfac::Error.
  void allreduce(std::span<float> data, ReduceOp op);

  /// Concatenation of every rank's contribution in rank order, written to
  /// a caller-owned buffer (resized to fit). Sizes may differ per rank
  /// (allgatherv semantics, like Horovod's allgather). Repeated gathers of
  /// a fixed shape reuse the buffer's capacity instead of reallocating it
  /// (the K-FAC gathers keep one each).
  void allgather_into(std::span<const float> send, std::vector<float>& recv);

  /// Copies `data` from `root` to all ranks. Every rank must pass the same
  /// root and length; a rank whose view differs from the blocks it receives
  /// throws dkfac::Error.
  void broadcast(std::span<float> data, int root);

  /// Returns once every rank has called it. A rank whose peers are in a
  /// different collective throws dkfac::Error, as they do.
  void barrier();

  /// Allreduce over a codec-encoded (fp16/bf16) payload: `data` holds
  /// 16-bit elements bit-packed two per float (comm::Codec's transport
  /// layout). Semantics are "encode once, reduce in fp32": every rank's
  /// encoded contribution is exchanged verbatim (byte-exact transport),
  /// decoded to fp32, folded in rank order — allreduce()'s body, with a
  /// decode before the fold — and the identical result is re-encoded on
  /// every rank. Thread and socket runs therefore stay bitwise identical
  /// to each other at any precision. Counted in allreduce_calls/bytes (at
  /// the encoded size), like the lossless collective it replaces.
  ///
  /// Scaling trade-off: encode-once forbids re-quantising partial sums,
  /// so every contribution travels whole — O((p−1)·n/2) wire bytes per
  /// rank versus a bandwidth-optimal ring allreduce's ~2·n·(p−1)/p of the
  /// fp32 payload. The lossless allreduce circulates every contribution
  /// too, so the encoded path ships half its bytes at every p. Against the
  /// bandwidth-optimal ring it ships fewer bytes below p = 4, as many at
  /// p = 4, and more beyond, where the gather term dominates. Compression
  /// is aimed at the small-world / latency-bound factor exchanges the
  /// paper targets, not at large p.
  void allreduce_encoded(std::span<float> data, Precision precision,
                         ReduceOp op);

  /// The α–β model of this backend's fabric. Everything tuned above the
  /// collectives — AsyncExecutor's eager threshold, fusion-buffer
  /// capacities — derives from this instead of hard-coding numbers for one
  /// backend.
  virtual const CostModel& cost_model() const {
    static const CostModel kDefault{};
    return kDefault;
  }

  const CommStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Records one factor exchange along the full reduction chain:
  /// `dense_bytes` is the dense n×n FP32 payload, `packed_bytes` the
  /// payload after triangle packing, `encoded_bytes` what actually entered
  /// the collective after the precision codec (equal to packed at fp32).
  void record_factor_volume(uint64_t dense_bytes, uint64_t packed_bytes,
                            uint64_t encoded_bytes) {
    stats_.factor_dense_bytes += dense_bytes;
    stats_.factor_packed_bytes += packed_bytes;
    stats_.factor_encoded_bytes += encoded_bytes;
  }

  /// Records one decomposition allgather: `dense_bytes` is the dense
  /// payload, `actual_bytes` what was really gathered (equal when the
  /// decomposition is not symmetry-packable).
  void record_decomp_volume(uint64_t dense_bytes, uint64_t actual_bytes) {
    stats_.decomp_dense_bytes += dense_bytes;
    stats_.decomp_packed_bytes += actual_bytes;
  }

  // ---- tensor conveniences ---------------------------------------------

  void allreduce(Tensor& t, ReduceOp op) { allreduce(t.span(), op); }
  void broadcast(Tensor& t, int root) { broadcast(t.span(), root); }

 protected:
  /// One read-only view per rank, in rank order.
  using Views = std::span<const std::span<const float>>;

  // ---- transport ---------------------------------------------------------
  //
  // What a backend implements: moving bytes. The collectives above call it
  // only when size() > 1, after their own checks and counting.

  /// Makes every rank's `send` visible to this rank as one view per rank.
  /// The views stay valid, and every rank's `send` must stay unchanged,
  /// until end_exchange(), which every rank calls once per exchange.
  virtual Views exchange(std::span<const float> send) = 0;
  virtual void end_exchange() = 0;

  /// Wire counters are the backend's to fill (see CommStats).
  CommStats stats_;

 private:
  /// allreduce() and allreduce_encoded() (kFp32: no codec).
  void reduce(std::span<float> data, Precision precision, ReduceOp op);
  /// broadcast() and barrier() (an empty `data`): one exchange in which
  /// only `root` contributes. `what` names the collective in errors.
  void deliver(std::span<float> data, int root, const char* what);

  // The fold and one decoded 16-bit contribution, reused across calls:
  // the gradient and factor exchanges reduce every step, and reallocating
  // chunk-sized buffers there would put megabyte mallocs on the comm
  // worker's hot path. Collectives are single-caller per communicator (see
  // the AsyncExecutor threading contract), so plain members are safe.
  std::vector<float> fold_;
  std::vector<float> decoded_;
};

/// Size-1 communicator: every collective is a no-op (single-process runs).
class SelfComm final : public Communicator {
 public:
  int rank() const override { return 0; }
  int size() const override { return 1; }

  const CostModel& cost_model() const override {
    static const CostModel kModel = CostModel::shared_memory();
    return kModel;
  }

 protected:
  // Never called: a size-1 communicator's collectives return first.
  Views exchange(std::span<const float>) override { return {}; }
  void end_exchange() override {}
};

}  // namespace dkfac::comm

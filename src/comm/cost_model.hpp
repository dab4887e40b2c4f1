// Analytic collective cost model (alpha–beta model on a ring).
//
// Used by dkfac_sim to reproduce the paper's at-scale results (Figs 7–9,
// Tables IV–V). Horovod's allreduce is the bandwidth-optimal ring
// scatter-reduce/allgather (Patarasuk & Yuan), whose cost for message size
// n bytes over p ranks is
//
//   T = 2(p-1)·α + 2·(p-1)/p · n/β
//
// with per-hop latency α and link bandwidth β. Ring allgather moves
// (p-1)/p of the aggregate payload. Defaults approximate EDR InfiniBand
// (100 Gb/s) with NCCL-like launch overheads, the fabric of the paper's
// Frontera GPU subsystem.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"

namespace dkfac::comm {

struct CostModel {
  double latency_s = 2.0e-5;          // per-hop α (NCCL launch + EDR hop)
  double bandwidth_bytes_per_s = 10.0e9;  // β ≈ 100 Gb/s EDR effective
  /// Fraction of β actually sustained by the collective implementation.
  double efficiency = 0.85;

  // ---- backend presets ----------------------------------------------------
  // Each Communicator backend reports the preset matching its fabric via
  // cost_model(); consumers (AsyncExecutor thresholds, fusion capacities)
  // derive their tuning from it instead of hard-coding numbers for one
  // backend.

  /// ThreadComm: a collective is a barrier + memcpy. α is a condition-
  /// variable wake, β a memory-bandwidth share.
  static CostModel shared_memory() { return {2.0e-6, 8.0e9, 0.9}; }

  /// SocketComm over loopback TCP: α is syscall + scheduling per frame,
  /// β the loopback stack with checksumming overhead.
  static CostModel loopback_tcp() { return {3.0e-5, 3.0e9, 0.7}; }

  double effective_bandwidth() const { return bandwidth_bytes_per_s * efficiency; }

  /// Ring allreduce of `bytes` across `ranks`.
  double allreduce_time(uint64_t bytes, int ranks) const {
    DKFAC_CHECK(ranks >= 1);
    if (ranks == 1 || bytes == 0) return 0.0;
    const double p = ranks;
    return 2.0 * (p - 1.0) * latency_s +
           2.0 * (p - 1.0) / p * static_cast<double>(bytes) / effective_bandwidth();
  }

  /// Ring allgather where `total_bytes` is the aggregate gathered payload.
  double allgather_time(uint64_t total_bytes, int ranks) const {
    DKFAC_CHECK(ranks >= 1);
    if (ranks == 1 || total_bytes == 0) return 0.0;
    const double p = ranks;
    return (p - 1.0) * latency_s +
           (p - 1.0) / p * static_cast<double>(total_bytes) / effective_bandwidth();
  }

  /// Fusion-buffer capacity that keeps the per-chunk latency term at most
  /// `max_latency_fraction` of the bandwidth term for a ring allreduce:
  /// chunks at least p·α·β_eff / f bytes stay bandwidth-dominated. Clamped
  /// to [1 MB, 64 MB] — Horovod's practical fusion-buffer range.
  uint64_t recommended_fusion_bytes(int ranks,
                                    double max_latency_fraction = 0.05) const {
    DKFAC_CHECK(ranks >= 1);
    DKFAC_CHECK(max_latency_fraction > 0.0 && max_latency_fraction < 1.0);
    constexpr uint64_t kMinBytes = 1ull << 20;
    constexpr uint64_t kMaxBytes = 64ull << 20;
    if (ranks == 1) return kMaxBytes / 2;  // no collectives issued anyway
    const double bytes = static_cast<double>(ranks) * latency_s *
                         effective_bandwidth() / max_latency_fraction;
    if (bytes >= static_cast<double>(kMaxBytes)) return kMaxBytes;
    return std::max(kMinBytes, static_cast<uint64_t>(bytes));
  }

  /// Async-pipeline launch threshold: the payload at which a ring
  /// allreduce's latency term equals its bandwidth term (2(p-1)·α ==
  /// 2(p-1)/p · n/β_eff → n = p·α·β_eff). Below it, fusing more tensors
  /// into the batch is free; above it, the collective is bandwidth-
  /// dominated and holding it back only wastes overlap. Low-latency
  /// fabrics (shared memory) land in the tens of KB, loopback TCP in the
  /// hundreds — which is exactly why this must come from the backend's
  /// cost model rather than a constant tuned for one of them.
  uint64_t recommended_eager_bytes(int ranks) const {
    DKFAC_CHECK(ranks >= 1);
    constexpr uint64_t kMinBytes = 4ull << 10;
    constexpr uint64_t kMaxBytes = 8ull << 20;
    if (ranks == 1) return kMinBytes;  // no collectives issued anyway
    const double bytes =
        static_cast<double>(ranks) * latency_s * effective_bandwidth();
    if (bytes >= static_cast<double>(kMaxBytes)) return kMaxBytes;
    return std::max(kMinBytes, static_cast<uint64_t>(bytes));
  }
};

}  // namespace dkfac::comm

// KfacPreconditioner — the paper's contribution (§IV, Algorithm 1).
//
// Acts as a gradient preconditioner between backward() + gradient
// allreduce and the wrapped optimizer's step(), exactly as in the paper's
// Listing 1:
//
//     loss.backward();
//     comm.allreduce(gradients);          // optimizer.synchronize()
//     preconditioner.step(epoch);         // KFAC.step()  <-- this class
//     sgd.step();                         // optimizer.step()
//
// Responsibilities per step (Algorithm 1):
//   1. every `factor_update_freq` iterations: recompute Kronecker factors
//      from the layer hooks, fold into running averages (Eqs 16–17), and
//      allreduce them (one fused buffer, Horovod-style);
//   2. every `inv_update_freq` iterations: eigendecompose (or explicitly
//      invert) the factors this rank owns under the distribution strategy,
//      then allgather the decompositions (K-FAC-opt) — or nothing
//      (K-FAC-lw, which instead exchanges preconditioned gradients each
//      iteration);
//   3. every iteration: precondition gradients (Eqs 13–15 or Eq 11),
//      rescale by ν (Eq 18), and write back into the layer gradients.
//
// In skip iterations K-FAC-opt performs no communication at all — the
// property that drives its scaling advantage (paper §IV-C).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "comm/arena.hpp"
#include "comm/async_executor.hpp"
#include "comm/communicator.hpp"
#include "comm/fusion.hpp"
#include "core/assignment.hpp"
#include "core/options.hpp"
#include "nn/layer.hpp"

namespace dkfac::kfac {

class KfacPreconditioner {
 public:
  /// Discovers K-FAC-eligible layers (Linear, Conv2d) in `model`. Layers
  /// of other types are ignored and updated normally by the wrapped
  /// optimizer. `comm` must outlive the preconditioner.
  KfacPreconditioner(nn::Layer& model, comm::Communicator& comm,
                     KfacOptions options);

  /// Completes any in-flight async factor exchange: the executor's worker
  /// may still be reducing views into this object's staging buffer (e.g.
  /// during exception unwind between steps), so tearing down without
  /// draining would free memory out from under it.
  ~KfacPreconditioner();

  /// Preconditions the current gradients in place. Call once per training
  /// iteration, after gradients are averaged across ranks.
  void step();

  // ---- schedule hooks ----------------------------------------------------

  /// Damping decay (paper §V-C): the trainer lowers γ at fixed epochs.
  void set_damping(float damping);
  /// Keeps ν (Eq 18) consistent when the LR schedule changes the rate.
  void set_lr(float lr);
  /// Update-frequency decay (paper §V-C).
  void set_update_freqs(int factor_update_freq, int inv_update_freq);

  /// True when the NEXT step() is due to recompute and exchange factors —
  /// the steps a straggler would stall the group at.
  bool factor_update_due() const {
    return iteration_ % options_.factor_update_freq == 0;
  }

  /// Skips the next step's factor AND decomposition updates (the paper's
  /// update-frequency-decay semantics applied as one-shot straggler
  /// slack): a late rank's factor contribution is dropped for the step
  /// instead of stalling the collective; preconditioning continues on the
  /// existing decompositions. MUST be called collectively — every rank
  /// skips or none do, or the collective sequences desynchronise. Ignored
  /// on the very first step (no decomposition exists to fall back on).
  void skip_factor_update_once() { skip_once_ = true; }

  /// Attaches the trainer's background communication pipeline. With
  /// options().overlap_comm set, factor allreduces are submitted to
  /// `executor` (overlapping the preconditioning GEMMs and the next
  /// iteration's compute) instead of blocking; the reduced factors are
  /// folded in lazily, right before their next consumer. Pass nullptr to
  /// detach (any in-flight exchange is finished first). `executor` must
  /// outlive the preconditioner or be detached before destruction, and
  /// must wrap the same communicator.
  void set_async_executor(comm::AsyncExecutor* executor);

  // ---- introspection -------------------------------------------------------

  int64_t iteration() const { return iteration_; }
  const KfacOptions& options() const { return options_; }

  /// Combined allocator-traffic counters of this object's comm arenas (the
  /// exchange slot + the fusion staging arena).
  comm::ArenaStats arena_stats() const {
    comm::ArenaStats s = arena_.stats();
    s += fusion_.arena_stats();
    return s;
  }
  /// Declares warm-up over: any further comm-path heap growth counts as
  /// steady_state_allocs.
  void mark_steady_state() {
    arena_.mark_steady_state();
    fusion_.mark_steady_state();
  }

  const WorkAssignment& assignment() const { return assignment_; }
  size_t layer_count() const { return layers_.size(); }
  /// Flattened factor dimensions (A₀, G₁, A₁, G₂, ...).
  const std::vector<int64_t>& factor_dims() const { return factor_dims_; }

  struct StepReport {
    bool factors_updated = false;
    bool decompositions_updated = false;
    /// A due factor/decomposition update was shed by
    /// skip_factor_update_once() (straggler slack).
    bool factor_step_skipped = false;
    /// Bytes the factor exchange handed to the collective this step, after
    /// triangle packing and the precision codec (0 on skip iterations).
    /// CommStats keeps the dense and packed volumes.
    uint64_t factor_comm_bytes = 0;
    /// Decomposition-batch split for this step (0 on skip iterations):
    /// owned factors that ran one-at-a-time with intra-matrix kernel
    /// parallelism vs concurrently under serial kernels (see
    /// linalg::run_decomposition_batch).
    int64_t decomp_intra_tasks = 0;
    int64_t decomp_inter_tasks = 0;
  };
  const StepReport& last_report() const { return report_; }

 private:
  struct FactorState {
    int64_t dim = 0;
    Tensor cov;   // running-average Kronecker factor
    Tensor q;     // eigenvectors (eigen path) or (X+γI)⁻¹ (inverse path)
    Tensor lam;   // eigenvalues (eigen path only)
    bool have_cov = false;
    bool have_decomp = false;
  };

  struct LayerState {
    nn::KfacCapturable* layer = nullptr;
    FactorState a;
    FactorState g;
  };

  FactorState& factor(int64_t f) {
    return (f % 2 == 0) ? layers_[static_cast<size_t>(f / 2)].a
                        : layers_[static_cast<size_t>(f / 2)].g;
  }

  void update_factors();
  /// Completes an in-flight asynchronous factor exchange: waits on the
  /// executor, decodes any lossy payload, and mirrors the packed triangles
  /// back into the covariance tensors. No-op when nothing is pending.
  void finish_factor_comm();
  void update_decompositions();
  void decompose_factor(FactorState& state) const;
  /// Eigenpairs kept for a factor of size `dim` (rank truncation).
  int64_t kept_rank(int64_t dim) const;
  /// Floats needed to publish one factor's decomposition (dense layout).
  int64_t decomp_payload(int64_t dim) const;
  /// Floats actually shipped per decomposition: the upper triangle of an
  /// explicit inverse (symmetric), the dense payload of an eigenpair.
  int64_t shipped_decomp_payload(int64_t dim) const;
  void exchange_decompositions();
  Tensor precondition_layer(const LayerState& state, const Tensor& grad) const;
  void precondition_factor_wise();
  void precondition_layer_wise();
  /// ν from Eq 18 given per-layer (preconditioned, original) pairs.
  float grad_scale(const std::vector<Tensor>& preconditioned,
                   const std::vector<Tensor>& original) const;

  nn::Layer& model_;
  comm::Communicator& comm_;
  KfacOptions options_;
  /// Capacity-chunked fused allreduce shared by every factor update.
  comm::FusionBuffer fusion_;
  /// Overlapped-communication pipeline (owned by the trainer); nullptr →
  /// synchronous exchange.
  comm::AsyncExecutor* executor_ = nullptr;
  /// Owns the exchange slot: ONE allocation per exchange holding the
  /// whole pipeline in place. For the factor exchange, triangles are
  /// packed into it, the codec encodes them in place inside it (encoded
  /// image at or below the packed image, see codec.hpp), the collective
  /// reduces it directly, and decode + unpack read it back out. The
  /// decomposition and K-FAC-lw gathers pack their send payload into it
  /// the same way. reset() + alloc() of the same shapes every step reuses
  /// the same blocks forever: the arena never grows in steady state, on
  /// any K-FAC exchange.
  comm::Arena arena_;
  /// The slot carved for the current factor exchange.
  comm::BufferView exchange_slot_;
  /// exchange_slot_ holds reduced payloads finish_factor_comm() has not
  /// yet folded into the covariances.
  bool exchange_live_ = false;
  /// Receive buffer of the decomposition and K-FAC-lw gathers, and the
  /// fp32 image of one rank's decoded 16-bit decomposition block. Both
  /// keep their capacity across steps.
  std::vector<float> gather_buf_;
  std::vector<float> decode_buf_;
  /// An asynchronous factor exchange is in flight (the executor is still
  /// reducing views of exchange_slot_ — the arena is pinned meanwhile).
  bool factor_comm_pending_ = false;
  std::vector<LayerState> layers_;
  std::vector<int64_t> factor_dims_;
  WorkAssignment assignment_;
  int64_t iteration_ = 0;
  /// One-shot straggler slack: the next due factor/decomp update is shed.
  bool skip_once_ = false;
  StepReport report_;
};

}  // namespace dkfac::kfac

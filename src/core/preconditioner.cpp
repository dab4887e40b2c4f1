#include "core/preconditioner.hpp"

#include <algorithm>
#include <cmath>

#include "comm/cost_model.hpp"
#include "comm/symmetric_packer.hpp"
#include "common/error.hpp"
#include "linalg/batch.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen.hpp"
#include "obs/trace.hpp"

namespace dkfac::kfac {

namespace {

/// Fusion-buffer capacity for the factor allreduce: the backend's own α–β
/// cost model's bandwidth-dominated chunk size for this world size.
/// Validates first — this runs in the member-init list, before the
/// constructor body, so a bad option set must surface as an options error
/// rather than a low-level failure further down.
size_t factor_fusion_capacity(const KfacOptions& options,
                              const comm::Communicator& comm) {
  options.validate();
  return comm.cost_model().recommended_fusion_bytes(comm.size());
}

}  // namespace

KfacPreconditioner::KfacPreconditioner(nn::Layer& model, comm::Communicator& comm,
                                       KfacOptions options)
    : model_(model),
      comm_(comm),
      options_(options),
      fusion_(comm_, factor_fusion_capacity(options_, comm_)) {
  // options_ already validated by factor_fusion_capacity in the init list.
  for (nn::KfacCapturable* layer : model_.kfac_layers()) {
    LayerState state;
    state.layer = layer;
    state.a.dim = layer->kfac_a_dim();
    state.g.dim = layer->kfac_g_dim();
    layers_.push_back(std::move(state));
    factor_dims_.push_back(layer->kfac_a_dim());
    factor_dims_.push_back(layer->kfac_g_dim());
  }
  DKFAC_CHECK(!layers_.empty())
      << "model contains no K-FAC-eligible (Linear/Conv2d) layers";
  assignment_ = make_assignment(options_.strategy, factor_dims_, comm_.size());
}

KfacPreconditioner::~KfacPreconditioner() {
  try {
    finish_factor_comm();
  } catch (...) {
    // Destructors must not throw; the executor keeps its error sticky for
    // whoever waits on it next.
  }
}

// Every runtime retune goes through the same validate() as construction, on
// a copy so a rejected value leaves the live options untouched.

void KfacPreconditioner::set_damping(float damping) {
  KfacOptions next = options_;
  next.damping = damping;
  next.validate();
  options_ = next;
}

void KfacPreconditioner::set_lr(float lr) {
  KfacOptions next = options_;
  next.lr = lr;
  next.validate();
  options_ = next;
}

void KfacPreconditioner::set_update_freqs(int factor_update_freq,
                                          int inv_update_freq) {
  KfacOptions next = options_;
  next.factor_update_freq = factor_update_freq;
  next.inv_update_freq = inv_update_freq;
  next.validate();
  options_ = next;
}

void KfacPreconditioner::set_async_executor(comm::AsyncExecutor* executor) {
  finish_factor_comm();
  executor_ = executor;
}

void KfacPreconditioner::step() {
  DKFAC_TRACE_SCOPE("kfac.step");
  report_ = {};

  // Straggler slack: shed this step's due factor + decomposition updates
  // (the paper's update-frequency-decay semantics as a one-shot skip).
  // Preconditioning below continues on the existing decompositions, so the
  // very first step — where none exist yet — must never be shed.
  const bool shed = skip_once_ && iteration_ > 0;
  skip_once_ = false;
  if (shed) {
    DKFAC_TRACE_SCOPE("kfac.factor_step_skipped");
    report_.factor_step_skipped = true;
  }

  if (!shed && iteration_ % options_.factor_update_freq == 0) {
    DKFAC_TRACE_SCOPE("kfac.factor_update");
    // A factor exchange left in flight by the previous step must fold in
    // before this step's running-average update reads the covariances.
    finish_factor_comm();
    update_factors();
    report_.factors_updated = true;
  }

  if (!shed && iteration_ % options_.inv_update_freq == 0) {
    DKFAC_TRACE_SCOPE("kfac.decomposition");
    finish_factor_comm();  // decomposition consumes the reduced factors
    update_decompositions();
    report_.decompositions_updated = true;
  }

  {
    DKFAC_TRACE_SCOPE("kfac.precondition");
    if (options_.strategy == DistributionStrategy::kLayerWise) {
      // K-FAC-lw allgathers preconditioned gradients directly on the
      // communicator, which must not race the background pipeline.
      finish_factor_comm();
      precondition_layer_wise();
    } else {
      // K-FAC-opt preconditions locally — a pending factor exchange keeps
      // overlapping these GEMMs (and the next iteration's compute).
      precondition_factor_wise();
    }
  }

  ++iteration_;
}

void KfacPreconditioner::update_factors() {
  {
    DKFAC_TRACE_SCOPE("kfac.factor_stats");
    // Local factor estimates folded into running averages (Eqs 16–17).
    const float xi = options_.factor_decay;
    for (LayerState& state : layers_) {
      Tensor a_new = state.layer->kfac_a_factor();
      Tensor g_new = state.layer->kfac_g_factor();
      if (!state.a.have_cov) {
        state.a.cov = std::move(a_new);
        state.g.cov = std::move(g_new);
        state.a.have_cov = state.g.have_cov = true;
      } else {
        state.a.cov.lerp_(1.0f - xi, xi, a_new);
        state.g.cov.lerp_(1.0f - xi, xi, g_new);
      }
    }
  }
  DKFAC_TRACE_SCOPE_NAMED(comm_span, "kfac.factor_comm");

  // Allreduce all factors — Algorithm 1 line 8. Every factor is symmetric,
  // so only its upper triangle is shipped (n(n+1)/2 of n² elements); with
  // a lossy factor_precision the triangles are additionally codec-encoded
  // to 16-bit before they enter the pipeline (quantised ONCE on this rank;
  // the collective gathers contributions verbatim and folds in fp32 — see
  // Communicator::allreduce_encoded). With an attached executor and
  // overlap_comm, views are submitted to the background pipeline instead
  // of reduced in place: the exchange overlaps the preconditioning GEMMs
  // and the next iteration's compute, and finish_factor_comm() decodes/
  // folds it in right before the next consumer.
  //
  // Zero-copy transport: every staged representation lives in ONE arena
  // slot. Triangles are packed into it at their packed offsets; a lossy
  // precision then encodes each triangle IN PLACE to its encoded offset —
  // the encoded image of factors 0..f is never longer than their packed
  // image (two 16-bit elements per float), so the encoded prefix can only
  // shrink below the packed data it consumes (codec.hpp spells out the
  // aliasing proof). The per-factor views handed to the collective are
  // back-to-back slices of the slot, so the fusion buffer reduces the slot
  // memory directly — no staging copy — and finish_factor_comm() decodes
  // (descending, expanding backward) and unpacks from the same slot.
  const bool async = executor_ != nullptr && options_.overlap_comm;
  const comm::Precision prec = options_.factor_precision;
  const bool lossy = prec != comm::Precision::kFp32;

  uint64_t dense_bytes = 0;
  int64_t packed_elements = 0;
  uint64_t shipped_bytes = 0;
  for (int64_t d : factor_dims_) {
    const int64_t count = comm::SymmetricPacker::packed_size(d);
    dense_bytes += static_cast<uint64_t>(d * d) * sizeof(float);
    packed_elements += count;
    shipped_bytes += comm::Codec::wire_bytes(count, prec);
  }

  // Carve this exchange's slot. Same shape every exchange → the arena
  // rewind hands back the same block, allocation-free once warm.
  arena_.reset();
  exchange_slot_ = arena_.alloc(static_cast<size_t>(packed_elements), prec);
  const std::span<float> slot = exchange_slot_.span();
  size_t packed_offset = 0;
  size_t encoded_offset = 0;
  for (int64_t f = 0; f < static_cast<int64_t>(factor_dims_.size()); ++f) {
    const auto count = static_cast<size_t>(
        comm::SymmetricPacker::packed_size(factor(f).dim));
    const auto enc_count = static_cast<size_t>(
        comm::Codec::encoded_floats(static_cast<int64_t>(count)));
    const std::span<float> triangle = slot.subspan(packed_offset, count);
    comm::SymmetricPacker::pack(factor(f).cov, triangle);
    comm::BufferView view = exchange_slot_.subview(packed_offset, count);
    if (lossy) {
      // In-place shrink: encoded offset ≤ packed offset, always.
      comm::Codec::encode(triangle, slot.subspan(encoded_offset, enc_count),
                          prec);
      view = exchange_slot_.subview(encoded_offset, enc_count);
    }
    // Submitting per factor pipelines each view's reduction behind the
    // packing/encoding of the next one.
    if (async) {
      executor_->submit(view, comm::ReduceOp::kAverage);
    } else {
      fusion_.add(view);
    }
    packed_offset += count;
    encoded_offset += enc_count;
  }
  exchange_live_ = true;
  if (async) {
    // The executor's worker resolves the views while this thread keeps
    // computing: pin the arena so a stray reset cannot recycle the slot
    // under the in-flight collective.
    arena_.pin();
    factor_comm_pending_ = true;
  } else {
    fusion_.execute(comm::ReduceOp::kAverage);
    finish_factor_comm();  // shares the decode + unpack path
  }

  const uint64_t packed_bytes =
      static_cast<uint64_t>(packed_elements) * sizeof(float);
  report_.factor_comm_bytes = shipped_bytes;
  comm_.record_factor_volume(dense_bytes, packed_bytes,
                             report_.factor_comm_bytes);
  if (comm_span.active()) {
    // When async, this span covers pack/encode/submit only — the wire time
    // shows up on the comm.worker timeline (comm.async.flush spans).
    comm_span.set_arg("bytes", report_.factor_comm_bytes);
    comm_span.set_arg("async", async ? 1 : 0);
  }
}

void KfacPreconditioner::finish_factor_comm() {
  if (!exchange_live_) return;  // a pending exchange is always live
  DKFAC_TRACE_SCOPE("kfac.factor_wait");
  if (factor_comm_pending_) {
    DKFAC_CHECK(executor_ != nullptr)
        << "async factor exchange pending without an executor";
    factor_comm_pending_ = false;
    // Unpin on every exit path: wait() rethrows a sticky pipeline error,
    // and a pinned arena would then refuse the next exchange's reset.
    struct Unpin {
      comm::Arena& arena;
      ~Unpin() { arena.unpin(); }
    } unpin{arena_};
    executor_->wait();
  }
  exchange_live_ = false;
  // Fold-in straight from the exchange slot: every staged representation
  // of this exchange lives in that one allocation. Every rank decodes
  // identical bytes, so the covariances stay identical across ranks and
  // backends. The slot is NOT released — the next exchange's reset+alloc
  // of the same shape reuses the block, keeping malloc off the hot path
  // even on skip-heavy schedules.
  //
  // Lossy triangles expand IN PLACE from the slot's encoded prefix back to
  // the packed offsets. Decoding factor f writes [P_f, P_f+c_f), reading
  // [E_f, E_f+e_f) with E_f ≤ P_f — walking factors DESCENDING (decode
  // writes backward, see codec.hpp) means every write lands at or above
  // all still-undecoded encoded words. fp32 triangles are unpacked as
  // reduced.
  const comm::Precision prec = options_.factor_precision;
  const std::span<float> slot = exchange_slot_.span();
  size_t packed_end = slot.size();
  size_t encoded_end = 0;
  for (int64_t d : factor_dims_) {
    encoded_end += static_cast<size_t>(
        comm::Codec::encoded_floats(comm::SymmetricPacker::packed_size(d)));
  }
  for (int64_t f = static_cast<int64_t>(factor_dims_.size()) - 1; f >= 0; --f) {
    const auto count = static_cast<size_t>(
        comm::SymmetricPacker::packed_size(factor(f).dim));
    packed_end -= count;
    const std::span<float> triangle = slot.subspan(packed_end, count);
    if (prec != comm::Precision::kFp32) {
      const auto enc_count = static_cast<size_t>(
          comm::Codec::encoded_floats(static_cast<int64_t>(count)));
      encoded_end -= enc_count;
      comm::Codec::decode(slot.subspan(encoded_end, enc_count), triangle, prec);
    }
    comm::SymmetricPacker::unpack(triangle, factor(f).cov);
  }
}

void KfacPreconditioner::decompose_factor(FactorState& state) const {
  DKFAC_CHECK(state.have_cov) << "decomposition requested before factors exist";
  if (options_.inverse_method == InverseMethod::kEigenDecomposition) {
    linalg::SymEig eig = linalg::sym_eig(state.cov);
    // Factors are PSD up to FP32 rounding; negative noise would make the
    // (υ_G υ_Aᵀ + γ) denominator lose positivity.
    eig.values.clamp_min_(0.0f);
    const int64_t kept = kept_rank(state.dim);
    if (kept < state.dim) {
      // Keep the top-`kept` eigenpairs (sym_eig sorts ascending, so the
      // last columns). Dropped directions behave as zero eigenvalues.
      Tensor q(Shape{state.dim, kept});
      Tensor lam(Shape{kept});
      const int64_t offset = state.dim - kept;
      for (int64_t i = 0; i < state.dim; ++i) {
        for (int64_t j = 0; j < kept; ++j) {
          q.at(i, j) = eig.vectors.at(i, offset + j);
        }
      }
      for (int64_t j = 0; j < kept; ++j) lam[j] = eig.values[offset + j];
      state.q = std::move(q);
      state.lam = std::move(lam);
    } else {
      state.q = std::move(eig.vectors);
      state.lam = std::move(eig.values);
    }
  } else {
    Tensor damped = state.cov;
    linalg::add_diagonal(damped, options_.damping);
    state.q = linalg::spd_inverse(damped);
    state.lam = Tensor(Shape{0});
  }
  state.have_decomp = true;
}

int64_t KfacPreconditioner::kept_rank(int64_t dim) const {
  if (options_.inverse_method != InverseMethod::kEigenDecomposition ||
      options_.eigen_rank_fraction >= 1.0f) {
    return dim;
  }
  const auto kept = static_cast<int64_t>(
      std::ceil(options_.eigen_rank_fraction * static_cast<float>(dim)));
  return std::max<int64_t>(1, std::min(kept, dim));
}

int64_t KfacPreconditioner::decomp_payload(int64_t dim) const {
  if (options_.inverse_method != InverseMethod::kEigenDecomposition) {
    return dim * dim;  // inverse matrix only
  }
  const int64_t kept = kept_rank(dim);
  return dim * kept + kept;  // truncated Q and Λ
}

int64_t KfacPreconditioner::shipped_decomp_payload(int64_t dim) const {
  // The explicit inverse (X+γI)⁻¹ is symmetric, so its allgather payload
  // triangle-packs exactly like the factors themselves. Eigenvector
  // matrices are not symmetric — the eigen path always ships dense.
  if (options_.inverse_method == InverseMethod::kExplicitInverse) {
    return comm::SymmetricPacker::packed_size(dim);
  }
  return decomp_payload(dim);
}

void KfacPreconditioner::update_decompositions() {
  const int rank = comm_.rank();
  // Hand every owned factor to the batched scheduler: large factors keep
  // the machine to themselves (intra-matrix kernels), small ones run
  // concurrently across the team. Results are identical to the plain
  // serial loop for any thread count — only wall-clock changes.
  std::vector<linalg::BatchTask> tasks;
  for (int64_t f = 0; f < static_cast<int64_t>(factor_dims_.size()); ++f) {
    if (assignment_.owner[static_cast<size_t>(f)] == rank) {
      FactorState& state = factor(f);
      tasks.push_back(
          {state.dim, [this, &state] { decompose_factor(state); }});
    }
  }
  const linalg::BatchReport batch = linalg::run_decomposition_batch(tasks);
  report_.decomp_intra_tasks = batch.intra_tasks;
  report_.decomp_inter_tasks = batch.inter_tasks;
  // K-FAC-lw keeps decompositions on the owner and exchanges preconditioned
  // gradients instead (every iteration); K-FAC-opt shares decompositions
  // now so preconditioning is local forever after (Algorithm 1 line 18).
  if (options_.strategy != DistributionStrategy::kLayerWise) {
    exchange_decompositions();
  }
}

void KfacPreconditioner::exchange_decompositions() {
  if (comm_.size() == 1) return;
  DKFAC_TRACE_SCOPE("kfac.decomp_exchange");
  const int rank = comm_.rank();
  const comm::Precision prec = options_.factor_precision;
  const bool lossy = prec != comm::Precision::kFp32;
  const bool inverse =
      options_.inverse_method == InverseMethod::kExplicitInverse;
  const size_t num_factors = factor_dims_.size();
  // A rank's payload (fp32 elements) is a pure function of the assignment.
  const auto rank_elements = [&](int r) {
    int64_t elements = 0;
    for (size_t f = 0; f < num_factors; ++f) {
      if (assignment_.owner[f] == r) {
        elements += shipped_decomp_payload(factor_dims_[f]);
      }
    }
    return static_cast<size_t>(elements);
  };

  // Pack owned decompositions in ascending factor order into one slot of
  // the exchange arena (the factor exchange has been folded in by now):
  // upper triangles for the symmetric explicit inverses, Q then Λ for
  // eigenpairs.
  const size_t elements = rank_elements(rank);
  arena_.reset();
  const std::span<float> slot = arena_.alloc(elements).span();
  size_t offset = 0;
  uint64_t dense_sent = 0;
  for (size_t f = 0; f < num_factors; ++f) {
    if (assignment_.owner[f] != rank) continue;
    const FactorState& state = factor(static_cast<int64_t>(f));
    DKFAC_CHECK(state.have_decomp);
    dense_sent +=
        static_cast<uint64_t>(decomp_payload(state.dim)) * sizeof(float);
    if (inverse) {
      const auto count = static_cast<size_t>(
          comm::SymmetricPacker::packed_size(state.dim));
      comm::SymmetricPacker::pack(state.q, slot.subspan(offset, count));
      offset += count;
      continue;
    }
    std::copy_n(state.q.data(), state.q.numel(), slot.data() + offset);
    offset += static_cast<size_t>(state.q.numel());
    std::copy_n(state.lam.data(), state.lam.numel(), slot.data() + offset);
    offset += static_cast<size_t>(state.lam.numel());
  }

  // Lossy precision: the whole rank payload is quantised once, encoded IN
  // PLACE into the slot's prefix (encoding shrinks forward, see codec.hpp),
  // and the encoded blocks are gathered verbatim.
  std::span<const float> send = slot;
  if (lossy) {
    const std::span<float> encoded = slot.first(static_cast<size_t>(
        comm::Codec::encoded_floats(static_cast<int64_t>(elements))));
    comm::Codec::encode(slot, encoded, prec);
    send = encoded;
  }
  comm_.allgather_into(send, gather_buf_);

  // Unpack rank by rank; each rank's block holds its owned factors in
  // ascending order, so the layout is fully determined by the assignment.
  // At fp32 this rank's own block is skipped (it already holds the exact
  // decomposition it sent); at a lossy precision every rank decodes every
  // block — its own included, so owners adopt the exact bytes their peers
  // see and the replicas never diverge.
  size_t gathered = 0;
  for (int r = 0; r < comm_.size(); ++r) {
    const size_t count = rank_elements(r);
    const size_t block_floats =
        lossy ? static_cast<size_t>(comm::Codec::encoded_floats(
                    static_cast<int64_t>(count)))
              : count;
    DKFAC_CHECK(gathered + block_floats <= gather_buf_.size())
        << "decomposition gather underflow";
    std::span<const float> block(gather_buf_.data() + gathered, block_floats);
    gathered += block_floats;
    if (r == rank && !lossy) continue;  // already have our own
    if (lossy) {
      decode_buf_.resize(count);
      comm::Codec::decode(block, decode_buf_, prec);
      block = decode_buf_;
    }
    size_t pos = 0;
    for (size_t f = 0; f < num_factors; ++f) {
      if (assignment_.owner[f] != r) continue;
      FactorState& state = factor(static_cast<int64_t>(f));
      const int64_t d = state.dim;
      if (inverse) {
        const auto packed = static_cast<size_t>(
            comm::SymmetricPacker::packed_size(d));
        state.q = Tensor(Shape{d, d});
        comm::SymmetricPacker::unpack(block.subspan(pos, packed), state.q);
        pos += packed;
      } else {
        const int64_t kept = kept_rank(d);
        state.q = Tensor(Shape{d, kept});
        std::copy_n(block.data() + pos, state.q.numel(), state.q.data());
        pos += static_cast<size_t>(state.q.numel());
        state.lam = Tensor(Shape{kept});
        std::copy_n(block.data() + pos, kept, state.lam.data());
        pos += static_cast<size_t>(kept);
      }
      state.have_decomp = true;
    }
  }
  DKFAC_CHECK(gathered == gather_buf_.size())
      << "decomposition gather leftover";

  // Dense-equivalent vs actually-shipped bytes for this rank's send — the
  // same per-rank convention allgather_bytes uses, so the shipped bytes
  // (triangle-packed, then codec-encoded at a lossy precision) really are
  // a subset of that counter.
  comm_.record_decomp_volume(
      dense_sent,
      comm::Codec::wire_bytes(static_cast<int64_t>(elements), prec));
}

Tensor KfacPreconditioner::precondition_layer(const LayerState& state,
                                              const Tensor& grad) const {
  DKFAC_CHECK(state.a.have_decomp && state.g.have_decomp)
      << state.layer->kfac_name() << ": preconditioning before decompositions";
  using linalg::matmul;
  using linalg::Trans;

  if (options_.inverse_method == InverseMethod::kExplicitInverse) {
    // Eq 12: (G+γI)⁻¹ · ∇L · (A+γI)⁻¹.
    return matmul(matmul(state.g.q, grad), state.a.q);
  }

  // Eqs 13–15. grad is [g_dim, a_dim]; Q matrices may be rank-truncated
  // (columns = kept eigenvectors).
  const float gamma = options_.damping;
  const int64_t kg = state.g.lam.dim(0);
  const int64_t ka = state.a.lam.dim(0);
  Tensor v1 = matmul(matmul(state.g.q, grad, Trans::kYes, Trans::kNo), state.a.q);
  Tensor v2 = v1;
  for (int64_t i = 0; i < kg; ++i) {
    for (int64_t j = 0; j < ka; ++j) {
      v2.at(i, j) /= state.g.lam[i] * state.a.lam[j] + gamma;
    }
  }
  if (kg == state.g.dim && ka == state.a.dim) {
    return matmul(matmul(state.g.q, v2), state.a.q, Trans::kNo, Trans::kYes);
  }
  // Truncated case: dropped eigendirections act as zero eigenvalues, so
  // every (i, j) pair outside the kept block has coefficient 1/γ:
  //   P = grad/γ + Q_G (V2 − V1/γ) Q_Aᵀ.
  Tensor correction = v2;
  correction.axpy_(-1.0f / gamma, v1);
  Tensor p = matmul(matmul(state.g.q, correction), state.a.q, Trans::kNo,
                    Trans::kYes);
  p.axpy_(1.0f / gamma, grad);
  return p;
}

float KfacPreconditioner::grad_scale(const std::vector<Tensor>& preconditioned,
                                     const std::vector<Tensor>& original) const {
  // Eq 18: ν = min(1, sqrt(κ / (α² Σᵢ Gᵢᵀ∇Lᵢ))).
  double vg_sum = 0.0;
  const double lr2 = static_cast<double>(options_.lr) * options_.lr;
  for (size_t i = 0; i < preconditioned.size(); ++i) {
    vg_sum += lr2 * preconditioned[i].dot(original[i]);
  }
  if (vg_sum <= 0.0) return 1.0f;
  return std::min(1.0f, static_cast<float>(std::sqrt(options_.kl_clip / vg_sum)));
}

void KfacPreconditioner::precondition_factor_wise() {
  // Algorithm 1 step 3: every rank preconditions every layer locally.
  std::vector<Tensor> preconditioned;
  std::vector<Tensor> original;
  preconditioned.reserve(layers_.size());
  original.reserve(layers_.size());
  for (LayerState& state : layers_) {
    Tensor grad = state.layer->kfac_grad();
    preconditioned.push_back(precondition_layer(state, grad));
    original.push_back(std::move(grad));
  }
  const float nu = grad_scale(preconditioned, original);
  for (size_t i = 0; i < layers_.size(); ++i) {
    preconditioned[i].scale_(nu);
    layers_[i].layer->set_kfac_grad(preconditioned[i]);
  }
}

void KfacPreconditioner::precondition_layer_wise() {
  // K-FAC-lw: layer owners precondition, then everyone receives the
  // preconditioned gradients — this exchange happens EVERY iteration,
  // which is exactly the communication the factor-wise scheme avoids.
  const int rank = comm_.rank();
  std::vector<Tensor> original;
  original.reserve(layers_.size());
  for (LayerState& state : layers_) {
    original.push_back(state.layer->kfac_grad());
  }

  // Owners precondition straight into one slot of the exchange arena.
  // Factor 2l's owner owns the layer (layer-wise assignment pairs both
  // factors on one rank).
  size_t elements = 0;
  for (size_t l = 0; l < layers_.size(); ++l) {
    if (assignment_.owner[2 * l] != rank) continue;
    elements += static_cast<size_t>(layers_[l].g.dim * layers_[l].a.dim);
  }
  arena_.reset();
  const std::span<float> send = arena_.alloc(elements).span();
  size_t offset = 0;
  for (size_t l = 0; l < layers_.size(); ++l) {
    if (assignment_.owner[2 * l] != rank) continue;
    const Tensor p = precondition_layer(layers_[l], original[l]);
    std::copy_n(p.data(), p.numel(), send.data() + offset);
    offset += static_cast<size_t>(p.numel());
  }

  std::span<const float> gathered = send;
  if (comm_.size() > 1) {
    comm_.allgather_into(send, gather_buf_);
    gathered = gather_buf_;
  }
  std::vector<Tensor> preconditioned(layers_.size());
  offset = 0;
  for (int r = 0; r < comm_.size(); ++r) {
    for (size_t l = 0; l < layers_.size(); ++l) {
      if (assignment_.owner[2 * l] != r) continue;
      const int64_t count = layers_[l].g.dim * layers_[l].a.dim;
      DKFAC_CHECK(offset + static_cast<size_t>(count) <= gathered.size())
          << "layer-wise gather underflow";
      preconditioned[l] = Tensor(Shape{layers_[l].g.dim, layers_[l].a.dim});
      std::copy_n(gathered.data() + offset, count, preconditioned[l].data());
      offset += static_cast<size_t>(count);
    }
  }
  DKFAC_CHECK(offset == gathered.size()) << "layer-wise gather leftover";

  const float nu = grad_scale(preconditioned, original);
  for (size_t l = 0; l < layers_.size(); ++l) {
    preconditioned[l].scale_(nu);
    layers_[l].layer->set_kfac_grad(preconditioned[l]);
  }
}

}  // namespace dkfac::kfac

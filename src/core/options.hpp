// Configuration surface of the distributed K-FAC preconditioner.
#pragma once

#include <algorithm>
#include <vector>

#include "comm/codec.hpp"
#include "common/error.hpp"

namespace dkfac::kfac {

/// How (F̂ + γI)⁻¹∇L is evaluated (paper §IV-A, Table I).
enum class InverseMethod {
  /// Implicit eigendecomposition path, Eqs 13–15 — the paper's choice.
  kEigenDecomposition,
  /// Explicit (A+γI)⁻¹, (G+γI)⁻¹ via Cholesky, Eq 11 — kept for the
  /// Table I comparison; degrades at large batch sizes.
  kExplicitInverse,
};

/// How K-FAC work is spread across workers (paper §VI-C3).
enum class DistributionStrategy {
  /// K-FAC-lw: each layer's whole update (both factors + preconditioning)
  /// on one worker; preconditioned gradients exchanged every iteration.
  kLayerWise,
  /// K-FAC-opt (Algorithm 1): each *factor* round-robin to a worker;
  /// eigendecompositions allgathered only on update iterations and
  /// gradients preconditioned locally everywhere.
  kFactorWise,
  /// The placement policy the paper proposes as future work (§VI-C4):
  /// factors greedily assigned largest-cost-first to the least-loaded
  /// worker, balancing the eigendecomposition stage.
  kSizeBalanced,
};

struct KfacOptions {
  /// Learning rate of the wrapped optimizer — enters the ν rescale (Eq 18).
  float lr = 0.1f;
  /// Tikhonov damping γ (Eq 11). The paper uses 0.001 for ImageNet runs.
  float damping = 0.001f;
  /// Running-average weight ξ for factor accumulation (Eqs 16–17).
  float factor_decay = 0.95f;
  /// κ in the gradient rescaling (Eq 18).
  float kl_clip = 0.001f;

  /// Iterations between factor computation + allreduce. The paper finds
  /// factors can refresh 10× more often than eigendecompositions (§V-C).
  int factor_update_freq = 1;
  /// Iterations between eigendecomposition refresh + allgather — the
  /// paper's `kfac-update-freq`.
  int inv_update_freq = 10;

  InverseMethod inverse_method = InverseMethod::kEigenDecomposition;
  DistributionStrategy strategy = DistributionStrategy::kFactorWise;

  /// Communication-reduction extension (the paper's §VII future work):
  /// keep only the top ⌈fraction·n⌉ eigenpairs of each factor. Dropped
  /// directions are treated as zero-eigenvalue, which Eqs 13–15 absorb
  /// into a 1/γ correction; payload per factor shrinks from n²+n to
  /// k·n+k. 1.0 = exact (default).
  float eigen_rank_fraction = 1.0f;

  /// Wire precision of the factor exchange and decomposition allgather
  /// (lossy-compression extension, the paper's §VII future work): fp16 or
  /// bf16 payloads halve the bytes SymmetricPacker/rank-truncation leave,
  /// at the cost of quantising each rank's contribution once before the
  /// fp32 rank-order reduction (comm::Codec's encode-once contract). fp32
  /// (default) is a zero-cost identity passthrough. Thread and socket
  /// backends remain bitwise identical to each other at every setting;
  /// only the fp32-vs-compressed comparison is approximate. Note the
  /// encoded allreduce transports contributions (allgather-style) to keep
  /// the encode-once contract, so its wire advantage holds for small
  /// worlds (p ≲ 4) and shrinking decomposition allgathers at any p —
  /// see Communicator::allreduce_encoded for the cost analysis.
  comm::Precision factor_precision = comm::Precision::kFp32;

  /// Route the factor allreduce through the trainer's comm::AsyncExecutor
  /// (when one is attached via set_async_executor) instead of a blocking
  /// fused allreduce, so factor exchange overlaps the tail of backprop and
  /// the preconditioning GEMMs. Falls back to the synchronous path when no
  /// executor is attached. Results are bitwise identical either way.
  bool overlap_comm = false;

  /// Sets both frequencies from the paper's single knob: eigendecompositions
  /// every `freq`, factors every `freq/10` (min 1).
  KfacOptions& with_update_freq(int freq) {
    DKFAC_CHECK(freq >= 1);
    inv_update_freq = freq;
    factor_update_freq = std::max(1, freq / 10);
    return *this;
  }

  void validate() const {
    DKFAC_CHECK(lr > 0.0f);
    DKFAC_CHECK(damping > 0.0f) << "K-FAC requires positive damping";
    DKFAC_CHECK(factor_decay > 0.0f && factor_decay <= 1.0f);
    DKFAC_CHECK(kl_clip > 0.0f);
    DKFAC_CHECK(factor_update_freq >= 1 && inv_update_freq >= 1);
    DKFAC_CHECK(eigen_rank_fraction > 0.0f && eigen_rank_fraction <= 1.0f)
        << "eigen_rank_fraction must be in (0, 1]";
    DKFAC_CHECK(factor_precision == comm::Precision::kFp32 ||
                factor_precision == comm::Precision::kFp16 ||
                factor_precision == comm::Precision::kBf16)
        << "factor_precision must be fp32, fp16, or bf16";
    DKFAC_CHECK(inv_update_freq % factor_update_freq == 0)
        << "eigendecomposition interval (" << inv_update_freq
        << ") must be a multiple of the factor interval (" << factor_update_freq
        << ") so updates always see fresh factors";
  }
};

}  // namespace dkfac::kfac

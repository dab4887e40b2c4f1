#include "sim/perf_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dkfac::sim {

ClusterSim::ClusterSim(ArchInfo arch, ClusterConfig config)
    : arch_(std::move(arch)), config_(config) {
  DKFAC_CHECK(!arch_.layers.empty());
}

double ClusterSim::forward_backward_s() const {
  // Backward ≈ 2× forward (grad w.r.t. weights + grad w.r.t. inputs).
  return 3.0 * arch_.forward_flops_per_sample() *
         static_cast<double>(config_.local_batch) / config_.gemm_tput;
}

double ClusterSim::sgd_iteration_s(int gpus) const {
  return config_.fixed_s + forward_backward_s() +
         config_.network.allreduce_time(
             static_cast<uint64_t>(arch_.gradient_bytes()), gpus);
}

std::vector<double> ClusterSim::worker_eig_seconds(
    int gpus, kfac::DistributionStrategy strategy) const {
  const std::vector<int64_t> dims = arch_.factor_dims();
  const kfac::WorkAssignment assignment =
      kfac::make_assignment(strategy, dims, gpus);
  std::vector<double> seconds(static_cast<size_t>(gpus), 0.0);
  for (size_t f = 0; f < dims.size(); ++f) {
    seconds[static_cast<size_t>(assignment.owner[f])] +=
        kfac::eig_cost(dims[f]) / config_.eig_rate + config_.eig_launch_s;
  }
  return seconds;
}

std::vector<int64_t> ClusterSim::worker_param_counts(
    int gpus, kfac::DistributionStrategy strategy) const {
  // The paper counts "the total number of parameters assigned to each
  // worker": every factor a worker decomposes contributes its layer's full
  // parameter count (so a layer whose A and G land on different workers is
  // counted on both — matching the paper's §VI-C4 numbers).
  const std::vector<int64_t> dims = arch_.factor_dims();
  const kfac::WorkAssignment assignment =
      kfac::make_assignment(strategy, dims, gpus);
  std::vector<int64_t> counts(static_cast<size_t>(gpus), 0);
  for (size_t f = 0; f < dims.size(); ++f) {
    counts[static_cast<size_t>(assignment.owner[f])] +=
        arch_.layers[f / 2].params();
  }
  return counts;
}

double ClusterSim::precondition_s(int gpus,
                                  kfac::DistributionStrategy strategy) const {
  // Eqs 13–15 per layer: two [g,g]·[g,a] and two [g,a]·[a,a] GEMMs. The
  // per-iteration bookkeeping congestion term (precond_congestion_s) is
  // charged in kfac_iteration_s — both strategies pay it equally.
  auto layer_flops = [](const LayerShape& l) {
    const double a = static_cast<double>(l.a_dim);
    const double g = static_cast<double>(l.g_dim);
    return 4.0 * g * a * (a + g);
  };

  if (strategy != kfac::DistributionStrategy::kLayerWise) {
    // K-FAC-opt: every rank preconditions every layer locally.
    double total = 0.0;
    for (const LayerShape& l : arch_.layers) total += layer_flops(l);
    return total / config_.precond_tput;
  }

  // K-FAC-lw: owners precondition their own layers; stage time = slowest.
  const std::vector<int64_t> dims = arch_.factor_dims();
  const kfac::WorkAssignment assignment =
      kfac::make_assignment(strategy, dims, gpus);
  std::vector<double> load(static_cast<size_t>(gpus), 0.0);
  for (size_t l = 0; l < arch_.layers.size(); ++l) {
    load[static_cast<size_t>(assignment.owner[2 * l])] +=
        layer_flops(arch_.layers[l]);
  }
  return *std::max_element(load.begin(), load.end()) / config_.precond_tput;
}

KfacStageProfile ClusterSim::kfac_stages(
    int gpus, kfac::DistributionStrategy strategy) const {
  KfacStageProfile profile;
  profile.factor_comp_s = arch_.factor_flops_per_sample() *
                          static_cast<double>(config_.local_batch) /
                          config_.factor_tput;
  profile.factor_comm_s = config_.network.allreduce_time(
      static_cast<uint64_t>(arch_.factor_bytes()), gpus);

  const std::vector<double> eig = worker_eig_seconds(gpus, strategy);
  profile.eig_comp_max_s = *std::max_element(eig.begin(), eig.end());
  profile.eig_comp_min_s = *std::min_element(eig.begin(), eig.end());

  profile.precond_s = precondition_s(gpus, strategy);

  if (strategy == kfac::DistributionStrategy::kLayerWise) {
    // Decompositions stay on the owner; instead the preconditioned
    // gradients (same size as the gradients) are exchanged every iteration
    // as one per-layer broadcast from each owner: bandwidth term of a ring
    // allgather plus a per-layer tree-broadcast launch cost.
    profile.eig_comm_s = 0.0;
    double hops = 0.0;
    for (int p = 1; p < gpus; p *= 2) hops += 1.0;
    profile.lw_grad_exchange_s =
        (gpus > 1 ? (gpus - 1.0) / gpus * static_cast<double>(arch_.gradient_bytes()) /
                        config_.network.effective_bandwidth()
                  : 0.0) +
        static_cast<double>(arch_.layers.size()) * hops * config_.lw_op_alpha_s;
  } else {
    profile.eig_comm_s = config_.network.allgather_time(
        static_cast<uint64_t>(arch_.eigen_bytes()), gpus);
    profile.lw_grad_exchange_s = 0.0;
  }
  return profile;
}

double ClusterSim::kfac_iteration_s(int gpus,
                                    kfac::DistributionStrategy strategy,
                                    int factor_freq, int inv_freq) const {
  DKFAC_CHECK(factor_freq >= 1 && inv_freq >= 1);
  const KfacStageProfile stages = kfac_stages(gpus, strategy);
  const double amortized_factors =
      (stages.factor_comp_s + stages.factor_comm_s) / factor_freq;
  const double amortized_eig =
      (stages.eig_comp_max_s + stages.eig_comm_s) / inv_freq;
  // Per-iteration K-FAC bookkeeping (hook capture, gradient staging, one
  // launch bundle per eligible layer) — both strategies pay it; see
  // ClusterConfig::precond_congestion_s.
  const double layers = static_cast<double>(arch_.layers.size());
  const double bookkeeping = config_.precond_congestion_s * layers * layers;
  return sgd_iteration_s(gpus) + amortized_factors + amortized_eig +
         stages.precond_s + stages.lw_grad_exchange_s + bookkeeping;
}

double ClusterSim::iterations_per_epoch(int gpus, int64_t samples) const {
  return static_cast<double>(samples) /
         (static_cast<double>(config_.local_batch) * gpus);
}

double ClusterSim::sgd_time_to_solution_s(int gpus, int epochs,
                                          int64_t samples) const {
  return sgd_iteration_s(gpus) * iterations_per_epoch(gpus, samples) * epochs;
}

double ClusterSim::kfac_time_to_solution_s(int gpus,
                                           kfac::DistributionStrategy strategy,
                                           int epochs, int64_t samples,
                                           int factor_freq, int inv_freq) const {
  return kfac_iteration_s(gpus, strategy, factor_freq, inv_freq) *
         iterations_per_epoch(gpus, samples) * epochs;
}

}  // namespace dkfac::sim

#include "sim/perf_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"

namespace dkfac::sim {
namespace {

using kfac::DistributionStrategy;

ClusterSim make_sim(int depth = 50) {
  return ClusterSim(resnet_imagenet_arch(depth));
}

TEST(PerfModel, SgdIterationTimeRoughlyConstantPerScale) {
  // Fixed local batch: compute is scale-free, only collective latency grows.
  ClusterSim sim = make_sim();
  const double t16 = sim.sgd_iteration_s(16);
  const double t256 = sim.sgd_iteration_s(256);
  EXPECT_GT(t256, t16);
  EXPECT_LT(t256, 3.0 * t16);
}

TEST(PerfModel, SgdScalingEfficiencyDegrades) {
  // Paper: SGD scaling efficiency ≈ 68.6% at 128 GPUs, < 50% at 256.
  ClusterSim sim = make_sim();
  const int64_t samples = 1'281'167;
  const double t16 = sim.sgd_time_to_solution_s(16, 90, samples);
  const double t128 = sim.sgd_time_to_solution_s(128, 90, samples);
  const double t256 = sim.sgd_time_to_solution_s(256, 90, samples);
  const double eff128 = (t16 / 8.0) / t128;
  const double eff256 = (t16 / 16.0) / t256;
  EXPECT_GT(eff128, 0.55);
  EXPECT_LT(eff128, 0.85);
  EXPECT_LT(eff256, 0.62);
  EXPECT_GT(eff256, 0.35);
}

TEST(PerfModel, FactorComputationConstantAcrossScales) {
  // Table V: factor Tcomp is flat in GPU count — the §VI-C4 limitation.
  ClusterSim sim = make_sim();
  const auto p16 = sim.kfac_stages(16, DistributionStrategy::kFactorWise);
  const auto p64 = sim.kfac_stages(64, DistributionStrategy::kFactorWise);
  EXPECT_DOUBLE_EQ(p16.factor_comp_s, p64.factor_comp_s);
}

TEST(PerfModel, EigStageShrinksSubLinearly) {
  // Table V/VI: doubling workers does NOT halve the eigendecomposition
  // stage because factor sizes are imbalanced.
  ClusterSim sim = make_sim();
  const auto p16 = sim.kfac_stages(16, DistributionStrategy::kFactorWise);
  const auto p64 = sim.kfac_stages(64, DistributionStrategy::kFactorWise);
  EXPECT_LT(p64.eig_comp_max_s, p16.eig_comp_max_s);
  // Far from the ideal 4× reduction.
  EXPECT_GT(p64.eig_comp_max_s, 0.4 * p16.eig_comp_max_s);
}

TEST(PerfModel, WorkerImbalanceMatchesTableVIShape) {
  // Fastest workers speed up far more than the slowest (Table VI: 6.2–8.3×
  // vs 1.3–1.9× from 16→64 GPUs).
  for (int depth : {50, 101, 152}) {
    ClusterSim sim = make_sim(depth);
    const auto w16 = sim.worker_eig_seconds(16, DistributionStrategy::kFactorWise);
    const auto w64 = sim.worker_eig_seconds(64, DistributionStrategy::kFactorWise);
    const double min16 = *std::min_element(w16.begin(), w16.end());
    const double max16 = *std::max_element(w16.begin(), w16.end());
    const double min64 = *std::min_element(w64.begin(), w64.end());
    const double max64 = *std::max_element(w64.begin(), w64.end());
    const double fast_speedup = min16 / min64;
    const double slow_speedup = max16 / max64;
    EXPECT_GT(fast_speedup, 3.0) << "depth " << depth;
    EXPECT_LT(slow_speedup, 3.0) << "depth " << depth;
    EXPECT_GT(slow_speedup, 0.99) << "depth " << depth;
  }
}

TEST(PerfModel, SizeBalancedReducesEigStage) {
  // The paper's proposed fix (§VI-C4) must beat round-robin at scale.
  ClusterSim sim = make_sim();
  const auto rr = sim.kfac_stages(64, DistributionStrategy::kFactorWise);
  const auto sb = sim.kfac_stages(64, DistributionStrategy::kSizeBalanced);
  EXPECT_LE(sb.eig_comp_max_s, rr.eig_comp_max_s);
}

TEST(PerfModel, LayerWiseExchangesGradientsEveryIteration) {
  ClusterSim sim = make_sim();
  const auto lw = sim.kfac_stages(64, DistributionStrategy::kLayerWise);
  const auto fw = sim.kfac_stages(64, DistributionStrategy::kFactorWise);
  EXPECT_GT(lw.lw_grad_exchange_s, 0.0);
  EXPECT_DOUBLE_EQ(fw.lw_grad_exchange_s, 0.0);
  EXPECT_GT(fw.eig_comm_s, 0.0);
  EXPECT_DOUBLE_EQ(lw.eig_comm_s, 0.0);
}

TEST(PerfModel, HigherUpdateFreqLowersIterationTime) {
  ClusterSim sim = make_sim();
  const double t100 = sim.kfac_iteration_s(64, DistributionStrategy::kFactorWise,
                                           10, 100);
  const double t500 = sim.kfac_iteration_s(64, DistributionStrategy::kFactorWise,
                                           50, 500);
  const double t1000 = sim.kfac_iteration_s(64, DistributionStrategy::kFactorWise,
                                            100, 1000);
  EXPECT_GT(t100, t500);
  EXPECT_GT(t500, t1000);
}

TEST(PerfModel, KfacOptBeatsSgdOnResnet50) {
  // The headline result: with 55 vs 90 epochs, K-FAC-opt is 18–25% faster
  // across scales (Table IV row 1).
  ClusterSim sim = make_sim(50);
  const int64_t samples = 1'281'167;
  for (int gpus : {16, 32, 64, 128, 256}) {
    const int interval = ClusterSim::update_interval_for_scale(gpus);
    const double sgd = sim.sgd_time_to_solution_s(gpus, 90, samples);
    const double kfac = sim.kfac_time_to_solution_s(
        gpus, DistributionStrategy::kFactorWise, 55, samples,
        std::max(1, interval / 10), interval);
    const double improvement = (sgd - kfac) / sgd;
    EXPECT_GT(improvement, 0.10) << gpus << " GPUs";
    EXPECT_LT(improvement, 0.35) << gpus << " GPUs";
  }
}

TEST(PerfModel, KfacAdvantageShrinksWithModelSize) {
  // Table IV column trend: ResNet-152 gains less than ResNet-50 (factor
  // computation does not scale with workers).
  const int64_t samples = 1'281'167;
  const int gpus = 64;
  const int interval = ClusterSim::update_interval_for_scale(gpus);
  auto improvement = [&](int depth) {
    ClusterSim sim = make_sim(depth);
    const double sgd = sim.sgd_time_to_solution_s(gpus, 90, samples);
    const double kfac = sim.kfac_time_to_solution_s(
        gpus, DistributionStrategy::kFactorWise, 55, samples,
        std::max(1, interval / 10), interval);
    return (sgd - kfac) / sgd;
  };
  EXPECT_GT(improvement(50), improvement(152));
}

TEST(PerfModel, UpdateIntervalScalesInverselyWithGpus) {
  EXPECT_EQ(ClusterSim::update_interval_for_scale(16), 2000);
  EXPECT_EQ(ClusterSim::update_interval_for_scale(32), 1000);
  EXPECT_EQ(ClusterSim::update_interval_for_scale(64), 500);
  EXPECT_EQ(ClusterSim::update_interval_for_scale(128), 250);
  EXPECT_EQ(ClusterSim::update_interval_for_scale(256), 125);
}

TEST(PerfModel, IterationsPerEpoch) {
  ClusterSim sim = make_sim();
  EXPECT_NEAR(sim.iterations_per_epoch(64, 1'281'167), 625.57, 0.1);
}

TEST(PerfModel, InvalidInputsThrow) {
  ClusterSim sim = make_sim();
  EXPECT_THROW(sim.kfac_iteration_s(16, DistributionStrategy::kFactorWise, 0, 10),
               Error);
}

}  // namespace
}  // namespace dkfac::sim

// Cluster scaling study: plan a large-scale training run before buying the
// GPU hours. Uses the calibrated performance model to project
// time-to-solution for SGD vs the two distributed K-FAC variants on the
// real ResNet architectures, and recommends an update interval.
//
//   usage: scaling_study [depth] [gpus]   (defaults: 50 256)
//
// Rows double from 16 GPUs up to `gpus`. A malformed or out-of-range
// argument exits 2 naming it.
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "sim/perf_model.hpp"

int main(int argc, char** argv) {
  using namespace dkfac;
  using kfac::DistributionStrategy;

  int depth = 50;
  int max_gpus = 256;
  sim::ArchInfo arch;
  const char* arg = "arguments";
  try {
    DKFAC_CHECK(argc <= 3) << "unexpected '" << argv[3] << "'";
    arg = "depth";
    if (argc > 1) depth = parse_number<int>(argv[1], "value");
    arch = sim::resnet_imagenet_arch(depth);
    arg = "gpus";
    if (argc > 2) max_gpus = parse_number<int>(argv[2], "value");
    // Past 32000 GPUs the paper's update interval, 32000 / gpus iterations,
    // is 0, which the model rejects.
    DKFAC_CHECK(max_gpus >= 16 &&
                sim::ClusterSim::update_interval_for_scale(max_gpus) >= 1)
        << max_gpus << " is outside [16, 32000]";
  } catch (const Error& e) {
    std::fprintf(stderr, "scaling_study: bad %s: %s\n"
                 "usage: scaling_study [depth] [gpus]\n", arg, e.what());
    return 2;
  }
  constexpr int64_t kSamples = 1'281'167;

  sim::ClusterSim cluster(arch);
  std::printf("scaling study: ResNet-%d (%lld params, %zu K-FAC layers), "
              "ImageNet-1k, batch 32/GPU\n\n",
              depth, static_cast<long long>(cluster.arch().total_params()),
              cluster.arch().layers.size());

  std::printf("%-6s %10s %12s %12s %14s %16s\n", "GPUs", "SGD(min)",
              "K-FAC-lw", "K-FAC-opt", "best interval", "eig imbalance");
  for (int gpus = 16; gpus <= max_gpus; gpus *= 2) {
    const double sgd = cluster.sgd_time_to_solution_s(gpus, 90, kSamples) / 60.0;

    // Sweep the update interval and keep the fastest K-FAC-opt setting.
    double best_opt = 1e300;
    int best_interval = 0;
    for (int interval : {100, 250, 500, 1000, 2000}) {
      const double t = cluster.kfac_time_to_solution_s(
          gpus, DistributionStrategy::kFactorWise, 55, kSamples,
          std::max(1, interval / 10), interval);
      if (t < best_opt) {
        best_opt = t;
        best_interval = interval;
      }
    }
    const int paper_interval = sim::ClusterSim::update_interval_for_scale(gpus);
    const double lw = cluster.kfac_time_to_solution_s(
                          gpus, DistributionStrategy::kLayerWise, 55, kSamples,
                          std::max(1, paper_interval / 10), paper_interval) / 60.0;

    const auto eig = cluster.worker_eig_seconds(gpus, DistributionStrategy::kFactorWise);
    const double eig_max = *std::max_element(eig.begin(), eig.end());
    const double eig_mean =
        std::accumulate(eig.begin(), eig.end(), 0.0) / static_cast<double>(eig.size());

    std::printf("%-6d %10.1f %12.1f %12.1f %14d %15.2fx\n", gpus, sgd, lw,
                best_opt / 60.0, best_interval, eig_max / eig_mean);
  }

  std::printf("\nreading the table: 'eig imbalance' is slowest/mean worker "
              "eigendecomposition time under round-robin placement — the "
              "paper's §VI-C4 bottleneck. Try the size-balanced policy via "
              "bench/ablation_placement_policy.\n");
  return 0;
}

// Figure 9: ResNet-152 time-to-solution across scales (modelled).
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "sim/perf_model.hpp"

int main() {
  using dkfac::kfac::DistributionStrategy;
  constexpr int64_t kSamples = 1'281'167;
  dkfac::bench::print_banner("Figure 9",
                             "ResNet-152 time-to-solution across scales (modelled)");
  dkfac::bench::print_note(
      "paper: K-FAC-opt beats SGD by 4.9-8.2% up to 128 GPUs and is 11.1% "
      "slower at 256 GPUs (deviation: our model bottoms out at a small "
      "positive margin instead of crossing negative)");
  dkfac::sim::ClusterSim sim(dkfac::sim::resnet_imagenet_arch(152));
  std::printf("%-6s %10s %12s %12s %10s %10s\n", "GPUs", "SGD(min)", "K-FAC-lw",
              "K-FAC-opt", "lw vs SGD", "opt vs SGD");
  for (int gpus : {16, 32, 64, 128, 256}) {
    const int interval = dkfac::sim::ClusterSim::update_interval_for_scale(gpus);
    const int factor_interval = std::max(1, interval / 10);
    const double sgd = sim.sgd_time_to_solution_s(gpus, 90, kSamples) / 60.0;
    const double lw = sim.kfac_time_to_solution_s(gpus, DistributionStrategy::kLayerWise,
                                                  55, kSamples, factor_interval,
                                                  interval) / 60.0;
    const double opt = sim.kfac_time_to_solution_s(
                           gpus, DistributionStrategy::kFactorWise, 55, kSamples,
                           factor_interval, interval) / 60.0;
    std::printf("%-6d %10.1f %12.1f %12.1f %9.1f%% %9.1f%%\n", gpus, sgd, lw, opt,
                100.0 * (sgd - lw) / sgd, 100.0 * (sgd - opt) / sgd);
  }
  return 0;
}

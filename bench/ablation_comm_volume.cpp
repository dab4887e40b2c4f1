// Ablation: measured communication volume per training iteration vs K-FAC
// update interval — the mechanism behind K-FAC-opt's scaling advantage
// (paper §IV-C: skip iterations perform no K-FAC communication at all) —
// plus the symmetry-packed factor-allreduce volume against its dense
// equivalent.
//
// Runs real distributed training (4 thread ranks) and reads the
// communicator byte counters.
#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace dkfac;
  bench::print_banner("Ablation",
                      "Measured comm volume per iteration vs K-FAC update interval");

  const data::SyntheticSpec spec = bench::bench_cifar_spec();
  const train::ModelFactory factory = bench::bench_resnet_factory();
  const int world = 4;
  const int epochs = 2;

  auto run = [&](bool use_kfac, int freq,
                 kfac::DistributionStrategy strategy) -> train::TrainResult {
    train::TrainConfig config = bench::bench_train_config(epochs, 0.05f, use_kfac);
    config.local_batch = 32;
    if (use_kfac) {
      config.kfac.with_update_freq(freq);
      config.kfac.strategy = strategy;
    }
    return train::train_distributed(factory, spec, config, world);
  };

  const train::TrainResult sgd =
      run(false, 1, kfac::DistributionStrategy::kFactorWise);
  const double sgd_per_iter =
      static_cast<double>(sgd.comm_stats.total_bytes()) / sgd.iterations;
  std::printf("%-34s %14s %16s\n", "configuration", "bytes/iter", "vs SGD");
  std::printf("%-34s %14.0f %15.2fx\n", "SGD only", sgd_per_iter, 1.0);

  // The freq=1 run ships factors every iteration; the packing section
  // below reads its factor counters.
  train::TrainResult every_step;
  for (int freq : {1, 5, 10, 20}) {
    const train::TrainResult result =
        run(true, freq, kfac::DistributionStrategy::kFactorWise);
    const double per_iter =
        static_cast<double>(result.comm_stats.total_bytes()) / result.iterations;
    std::printf("K-FAC-opt freq=%-18d %14.0f %15.2fx\n", freq, per_iter,
                per_iter / sgd_per_iter);
    if (freq == 1) every_step = result;
  }
  const train::TrainResult lw = run(true, 10, kfac::DistributionStrategy::kLayerWise);
  const double lw_per_iter =
      static_cast<double>(lw.comm_stats.total_bytes()) / lw.iterations;
  std::printf("K-FAC-lw  freq=%-18d %14.0f %15.2fx\n", 10, lw_per_iter,
              lw_per_iter / sgd_per_iter);

  std::printf("\nshape check: K-FAC-opt volume decays toward the SGD floor as "
              "the interval grows; K-FAC-lw stays elevated because it "
              "exchanges preconditioned gradients every iteration.\n");

  // ---- symmetry-packed factor allreduce vs its dense equivalent ----------
  // Every Kronecker factor is symmetric, so shipping the upper triangle
  // cuts the factor payload to n(n+1)/2 of n² per factor; the dense
  // counter records what the unpacked payload would have been.
  bench::print_banner("Ablation",
                      "Dense vs symmetry-packed factor-allreduce volume");
  const auto per_iter = [&](uint64_t bytes) {
    return static_cast<double>(bytes) /
           static_cast<double>(every_step.iterations);
  };
  const double dense_bytes = per_iter(every_step.comm_stats.factor_dense_bytes);
  const double packed_bytes =
      per_iter(every_step.comm_stats.factor_packed_bytes);
  const double ratio = packed_bytes / dense_bytes;
  std::printf("%-34s %14s %16s\n", "factor payload", "bytes/iter", "vs dense");
  std::printf("%-34s %14.0f %15.2f%%\n", "dense n^2", dense_bytes, 100.0);
  std::printf("%-34s %14.0f %15.2f%%\n", "packed n(n+1)/2", packed_bytes,
              100.0 * ratio);

  const bool volume_ok = ratio <= 0.56;
  std::printf("\ncheck: packed volume <= 56%% of dense: %s\n",
              volume_ok ? "PASS" : "FAIL");
  return volume_ok ? 0 : 1;
}

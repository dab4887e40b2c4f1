// Ablation: thread-backed vs socket-backed collective backend.
//
// Same training job (4 ranks, ResNet-8 stand-in, K-FAC on) on both
// Communicator backends:
//
//   thread   N ranks as N threads over shared memory (LocalGroup)
//   socket   N forked processes over localhost TCP (net::SocketComm),
//            rendezvous + full peer mesh, every collective one ring
//            exchange
//
// Reports per-step wall time, the logical collective payload (identical
// across backends by the CommStats convention), and the socket backend's
// real bytes-on-wire (frame headers, forwarding hops and all) — the gap
// between those two columns is what the wire protocol and ring algorithms
// actually cost. Both backends reduce in rank order, so the trained
// weights must match bit for bit; the bench checkpoints both runs and
// verifies it.
//
// Process hygiene: the socket variants run FIRST — fork() must precede
// any OpenMP team in this process, and the thread variants spawn them.
#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "comm/net/launch.hpp"
#include "nn/serialize.hpp"

namespace {

using namespace dkfac;

constexpr int kWorld = 4;
constexpr int kEpochs = 2;

train::TrainConfig job_config(bool overlap) {
  train::TrainConfig config = bench::bench_train_config(kEpochs, 0.05f,
                                                        /*use_kfac=*/true);
  config.local_batch = 32;
  config.kfac.with_update_freq(5);
  config.overlap_comm = overlap;
  return config;
}

void print_row(const char* name, const train::TrainResult& result) {
  const double ms_per_step =
      result.total_seconds / static_cast<double>(result.iterations) * 1e3;
  std::printf("%-26s %10.2f %14.2f %14.2f %12.4f\n", name, ms_per_step,
              static_cast<double>(result.comm_stats.total_bytes()) / 1e6,
              static_cast<double>(result.comm_stats.wire_sent_bytes) / 1e6,
              result.final_val_accuracy);
}

/// Socket-backed run: rank 0's child prints the row and writes `ckpt`.
int run_socket(const char* name, bool overlap, const std::string& ckpt) {
  train::TrainConfig config = job_config(overlap);
  config.on_trained_model = [&ckpt](nn::Layer& model) {
    nn::save_checkpoint(model, ckpt);
  };
  return comm::net::run_ranks(kWorld, [&](comm::Communicator& comm) {
    omp_set_num_threads(train::omp_threads_per_rank(kWorld));
    const train::TrainResult result = train::train_with_comm(
        bench::bench_resnet_factory(8, 10, 16), bench::bench_cifar_spec(),
        config, comm);
    if (comm.rank() == 0) print_row(name, result);
    return 0;
  });
}

train::TrainResult run_thread(const char* name, bool overlap,
                              const std::string& ckpt) {
  train::TrainConfig config = job_config(overlap);
  config.on_trained_model = [&ckpt](nn::Layer& model) {
    nn::save_checkpoint(model, ckpt);
  };
  const train::TrainResult result = train::train_distributed(
      bench::bench_resnet_factory(8, 10, 16), bench::bench_cifar_spec(),
      config, kWorld);
  print_row(name, result);
  return result;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

int main() {
  bench::print_banner("Ablation",
                      "Collective backend: thread ranks vs socket processes");
  bench::print_note("4 ranks, ResNet-8 stand-in, K-FAC update interval 5; "
                    "logical bytes follow the payload convention, wire bytes "
                    "are rank 0's real TCP traffic (headers included)");
  std::printf("%-26s %10s %14s %14s %12s\n", "backend", "ms/step",
              "logical MB", "wire-sent MB", "final acc");

  const std::string dir = "/tmp/";
  const std::string socket_sync_ckpt = dir + "dkfac_bench_socket_sync.ckpt";
  const std::string socket_olap_ckpt = dir + "dkfac_bench_socket_olap.ckpt";
  const std::string thread_sync_ckpt = dir + "dkfac_bench_thread_sync.ckpt";
  const std::string thread_olap_ckpt = dir + "dkfac_bench_thread_olap.ckpt";

  // Forked variants first (fork-before-OpenMP).
  if (run_socket("socket, synchronous", false, socket_sync_ckpt) != 0 ||
      run_socket("socket, overlapped", true, socket_olap_ckpt) != 0) {
    std::fprintf(stderr, "socket-backed run failed\n");
    return 1;
  }
  (void)run_thread("thread, synchronous", false, thread_sync_ckpt);
  (void)run_thread("thread, overlapped", true, thread_olap_ckpt);

  const bool sync_match = slurp(socket_sync_ckpt) == slurp(thread_sync_ckpt) &&
                          !slurp(thread_sync_ckpt).empty();
  const bool olap_match = slurp(socket_olap_ckpt) == slurp(thread_olap_ckpt) &&
                          !slurp(thread_olap_ckpt).empty();
  std::printf("\ncheck: bitwise-identical weights across backends — "
              "synchronous: %s; overlapped: %s\n",
              sync_match ? "PASS" : "FAIL", olap_match ? "PASS" : "FAIL");
  return sync_match && olap_match ? 0 : 1;
}

// One benchmark workload: the training job perfbench/run.py describes on the
// command line (key=value pairs taken from perfbench/workloads.json), and
// the per-rank report each trial fills in.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "nn/layer.hpp"
#include "train/trainer.hpp"

namespace perfbench {

enum class Backend { kSelf, kThread, kSocket };

struct Workload {
  // Set per workload: every key must be given (perfbench/workloads.json
  // "config").
  std::string name;
  Backend backend = Backend::kSelf;
  int ranks = 1;
  int omp_threads = 1;
  bool kfac = false;
  bool overlap = false;
  std::string precision;
  int64_t train_size = 0;
  float noise = 0.0f;
  /// The run's --seed: the epoch shuffle order.
  uint64_t seed = 0;

  // The same in every workload (perfbench/workloads.json "fixed", which
  // run.py checks against the binary's echo of these).
  static constexpr int kDepth = 8;
  static constexpr int64_t kWidth = 8;
  static constexpr int64_t kLocalBatch = 32;
  static constexpr int kEpochs = 5;
  static constexpr double kLr = 0.05;
  /// Epochs of the two 10x learning-rate decays.
  static constexpr float kDecayEpochs[2] = {2.0f, 4.0f};
  static constexpr double kDamping = 0.003;
  static constexpr int kUpdateFreq = 10;
  static constexpr int64_t kImage = 16;
  static constexpr int64_t kClasses = 10;
  static constexpr int64_t kGrid = 4;
  static constexpr int64_t kValSize = 512;
  /// Seeds the synthetic class prototypes and sample noise, so every run
  /// trains on the same task.
  static constexpr uint64_t kDatasetSeed = 1234;
  /// One model initialisation for every run. Across initialisations the
  /// epoch at which validation accuracy passes a workload's target varied,
  /// which moved time_to_target_s by a whole epoch; across shuffle orders
  /// alone it did not.
  static constexpr uint64_t kModelSeed = 42;
  /// Steps (from the first) left out of every timing: one whole
  /// inverse-update cycle, so cold caches and the first decomposition stay
  /// in setup_s.
  static constexpr int kWarmupSteps = kUpdateFreq;

  /// Parses `key=value` arguments; throws dkfac::Error on an unknown,
  /// missing or repeated key, or a malformed value.
  static Workload parse(const std::vector<std::string>& args);

  /// The fixed settings above as a JSON object.
  static std::string fixed_json();

  /// Threads the workload keeps busy: ranks × OpenMP threads, plus one
  /// overlap executor thread per rank.
  int thread_budget() const {
    return ranks * omp_threads + (overlap ? ranks : 0);
  }

  dkfac::data::SyntheticSpec data_spec() const;
  dkfac::train::TrainConfig train_config() const;
  dkfac::train::ModelFactory model_factory() const;
};

constexpr int kMaxSteps = 4096;

/// Per-step layer rows the traced loop attributes step time to.
enum Row {
  kData,
  kForward,
  kLoss,
  kBackward,
  kGradComm,
  kFactorStep,
  kDecompStep,
  kOptim,
  kRowCount
};

/// What one rank reports from one trial. Plain data: socket trials place
/// it in memory shared with the launcher, so it may hold no pointers.
struct RankReport {
  int done = 0;
  int64_t enter_ns = 0;  ///< rank function entered (communicator is up)

  // Rank 0 only: step_probe timestamps and epoch-end (post-evaluation)
  // timestamps, on the system-wide monotonic clock.
  int32_t steps = 0;
  int64_t step_ns[kMaxSteps] = {};
  int32_t step_epoch[kMaxSteps] = {};
  int32_t epochs = 0;
  int64_t epoch_end_ns[Workload::kEpochs] = {};
  float val_acc[Workload::kEpochs] = {};
  float train_loss[Workload::kEpochs] = {};
  uint64_t param_hash = 0;

  // Every rank.
  uint64_t steady_state_allocs = 0;
  uint64_t arena_bytes_reserved = 0;
  int64_t maxrss_kb = 0;

  // Traced loop only.
  struct Traced {
    int64_t setup_data_ns = 0;
    int64_t setup_model_ns = 0;
    int64_t setup_kfac_ns = 0;
    int64_t warmup_ns = 0;
    int64_t timed_steps = 0;
    int64_t step_ns_total = 0;
    int64_t row_ns[kRowCount] = {};
    int64_t row_calls[kRowCount] = {};
    int64_t eval_ns = 0;
    int64_t eval_calls = 0;
    // Communicator deltas between consecutive gradient-sync points of the
    // timed steps (count_steps of them).
    int64_t count_steps = 0;
    uint64_t calls = 0;
    uint64_t bytes = 0;
    uint64_t wire_sent = 0;
    double async_comm_s = 0.0;
    double async_wait_s = 0.0;
    uint64_t factor_updates = 0;
    uint64_t factor_bytes = 0;
    uint64_t decomp_updates = 0;
    int64_t sym_eig_ns = 0;
  } traced;
};

int64_t now_ns();

/// FNV-1a over the bit patterns of every parameter, in definition order.
uint64_t hash_parameters(dkfac::nn::Layer& model);

/// Peak resident set of the calling process, in KiB.
int64_t peak_rss_kb();

}  // namespace perfbench

// Distributed training harness — the C++ equivalent of the paper's
// Listing 1 loop, run SPMD over thread ranks:
//
//     output = model(data);  loss = criterion(output, target);
//     loss.backward();
//     optimizer.synchronize();        -> fused gradient allreduce
//     preconditioner.step();          -> KfacPreconditioner::step()
//     optimizer.step();               -> Sgd::step()
//
// Every rank builds an identical model replica (same seed), consumes its
// shard of the global batch, and participates in the collectives. Shared
// by all examples and benches.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "core/options.hpp"
#include "data/loader.hpp"
#include "data/synthetic.hpp"
#include "nn/layer.hpp"
#include "optim/lr_schedule.hpp"

namespace dkfac::train {

using ModelFactory = std::function<nn::LayerPtr(Rng&)>;

/// Most images one evaluation forward holds (see evaluate()). A forward's
/// working set — each conv layer's im2col patch matrix above all — grows
/// with its batch. 32 images keep evaluation at or below the working set
/// of a training step at perfbench's local batch, so training, not
/// evaluation, sets a run's peak memory: smaller micro-batches would
/// lower neither that peak nor, measurably, the time.
inline constexpr int64_t kEvalMicroBatch = 32;

/// Inner optimizer the (optional) K-FAC preconditioner runs in front of —
/// the paper's §IV composability: "K-FAC can be used in-place with any
/// standard optimizer, such as Adam, LARS, or SGD".
enum class OptimizerKind { kSgd, kAdam, kLars };

struct TrainConfig {
  int64_t local_batch = 32;
  int epochs = 10;
  /// First epoch to run (training covers [start_epoch, epochs)). A
  /// re-formed elastic group restores a checkpoint tagged with epoch e and
  /// resumes at start_epoch = e: the LR schedule and K-FAC decays are
  /// functions of the absolute epoch, so the resumed trajectory matches
  /// where the undisturbed run would be.
  int start_epoch = 0;
  OptimizerKind optimizer = OptimizerKind::kSgd;
  optim::LrSchedule::Options lr;
  float momentum = 0.9f;
  float weight_decay = 0.0f;
  float label_smoothing = 0.0f;

  /// Overlap communication with compute (Horovod §II-D): per-layer
  /// gradient allreduces are submitted to a background comm::AsyncExecutor
  /// the moment each layer finishes backprop, and K-FAC factor exchanges
  /// ride the same pipeline. Off → the synchronous fused allreduce.
  /// Results are bitwise identical either way (deterministic collectives,
  /// elementwise reductions).
  bool overlap_comm = false;

  /// Enable the K-FAC preconditioner in front of SGD.
  bool use_kfac = false;
  kfac::KfacOptions kfac;
  /// Damping decay (paper §V-C): γ multiplied by `damping_decay_factor`
  /// at each listed epoch.
  std::vector<float> damping_decay_epochs;
  float damping_decay_factor = 0.5f;
  /// Update-frequency decay (paper §V-C): the K-FAC update interval is
  /// multiplied by `freq_decay_factor` at each listed epoch (factor
  /// interval scales with it, preserving the 10× relationship).
  std::vector<float> freq_decay_epochs;
  float freq_decay_factor = 0.5f;

  uint64_t model_seed = 42;
  uint64_t data_seed = 7;
  /// Size of the rank-strided blocks that shard the validation set: rank r
  /// evaluates blocks r, r + p, r + 2p, ... of `eval_batch` images each.
  /// It sets which replica scores which image, not the forward size: each
  /// block is forwarded in micro-batches of kEvalMicroBatch (evaluate()).
  int64_t eval_batch = 256;

  /// Per-step metrics as JSONL (one obs::StepMetricsLogger record per
  /// step) to this path; empty = off. Observability only — enabling it never changes
  /// training results (stats are snapshotted at the existing gradient
  /// synchronisation point, so no extra barriers or collectives appear).
  std::string metrics_path;

  /// Invoked with rank 0's trained model before the workers tear down —
  /// use it to checkpoint or inspect the final weights.
  std::function<void(nn::Layer&)> on_trained_model;

  // ---- elastic fault tolerance (see train/elastic.hpp) ---------------------

  /// Invoked on rank 0 at the end of every epoch with (epoch, model) — the
  /// elastic trainer writes its durable epoch-tagged checkpoint here.
  std::function<void(int, nn::Layer&)> on_epoch_checkpoint;

  /// Invoked on EVERY rank right after the replicas are built and
  /// broadcast, before the first step — the rejoin hook: a re-formed group
  /// overwrites the fresh weights with the last durable checkpoint here.
  /// Must leave all ranks identical (e.g. every rank loads the same file).
  std::function<void(nn::Layer&)> on_model_init;

  /// K-FAC straggler slack: on steps where a factor update is due, ranks
  /// vote (one tiny kMax allreduce at the already-synchronised gradient
  /// point) on their per-step compute-time spread; if max − min exceeds
  /// this many seconds, ALL ranks shed the step's factor update — the
  /// paper's update-frequency-decay semantics instead of stalling the
  /// collective behind the slow rank. 0 = off (no vote, no extra
  /// collective — existing runs are byte-for-byte unchanged).
  double straggler_slack_s = 0.0;

  /// Test hook: extra seconds of simulated compute lag `rank` reports into
  /// the straggler vote at a given (rank, global step). Null = none.
  std::function<double(int, int64_t)> straggler_lag_hook;

  /// Fault-injection hook, called on every rank at the top of each step
  /// with (epoch, batch) BEFORE any collective of that step. Chaos tests
  /// use it to self-SIGKILL a rank at an exact, reproducible point.
  std::function<void(int, int64_t)> step_probe;

  /// Elastic scale-up: polled at the top of every step, BEFORE any
  /// collective. Returning true makes the trainer throw comm::RegrowRequest
  /// — the cooperative "tear down and re-rendezvous so a waiting joiner can
  /// be admitted" signal. All ranks must poll the same external condition
  /// (the supervisor signals everyone), so the group leaves together
  /// within one step. Null = never.
  std::function<bool()> reform_poll;

  /// Elastic counters carried across re-formations, surfaced verbatim in
  /// the metrics stream (elastic.reformations) and added to this run's
  /// shed-step count (elastic.skipped_factor_steps).
  uint64_t elastic_reformations = 0;
  uint64_t skipped_factor_steps_baseline = 0;
  /// Elastic scale-up counters for the metrics stream: ranks observed
  /// joining the group across this process's re-formations
  /// (elastic.joins), and whether this process itself is a respawned
  /// replacement (elastic.respawns).
  uint64_t elastic_joins = 0;
  uint64_t elastic_respawns = 0;
};

struct EpochMetrics {
  int epoch = 0;
  float train_loss = 0.0f;
  float train_accuracy = 0.0f;
  float val_accuracy = 0.0f;
  double seconds = 0.0;
};

struct TrainResult {
  std::vector<EpochMetrics> epochs;
  float final_val_accuracy = 0.0f;
  float best_val_accuracy = 0.0f;
  int64_t iterations = 0;
  double total_seconds = 0.0;
  /// K-FAC factor updates shed as straggler slack during this run (not
  /// including the config's carried-over baseline).
  uint64_t skipped_factor_steps = 0;
  /// Rank-0 communication counters over the whole run.
  comm::CommStats comm_stats;

  /// First epoch (1-based) whose validation accuracy reaches `target`,
  /// or -1 if never reached.
  int epochs_to_reach(float target) const {
    for (const EpochMetrics& m : epochs) {
      if (m.val_accuracy >= target) return m.epoch;
    }
    return -1;
  }
};

/// Runs the full distributed training job on `world_size` thread ranks.
/// Deterministic: the same inputs give the same result bit-for-bit.
TrainResult train_distributed(const ModelFactory& factory,
                              const data::SyntheticSpec& data_spec,
                              const TrainConfig& config, int world_size);

/// Single-rank convenience wrapper.
TrainResult train_single(const ModelFactory& factory,
                         const data::SyntheticSpec& data_spec,
                         const TrainConfig& config);

/// Per-rank SPMD entry point on an existing communicator endpoint — the
/// backend-agnostic core train_distributed (thread ranks) and the socket
/// launcher (`net::run_ranks`, one process per rank) both drive. All ranks
/// of the group must call it collectively with identical config. Results
/// are bitwise identical across backends: both reduce in rank order.
TrainResult train_with_comm(const ModelFactory& factory,
                            const data::SyntheticSpec& data_spec,
                            const TrainConfig& config,
                            comm::Communicator& comm);

/// OpenMP team size for one of `world_size` ranks sharing this machine
/// (cores divided evenly, at least 1). The single definition every
/// launcher must use — train_distributed applies it to thread ranks, and
/// socket-rank callers apply it in each forked process — so both backends
/// run identical per-rank parallelism.
int omp_threads_per_rank(int world_size);

/// Evaluates top-1 accuracy of `model` over the validation split, sharded
/// across ranks and allreduced (every rank returns the global number).
/// Rank r scores the rank-strided blocks of `eval_batch` images that
/// TrainConfig::eval_batch describes, on its own replica (BatchNorm running
/// statistics differ across replicas), and forwards each block in
/// micro-batches of at most kEvalMicroBatch images. The split cannot change
/// a bit: in eval mode every output of a sample depends on that sample
/// alone — each conv or linear output element is one FMA chain over k
/// whose order does not depend on the batch's size, and BatchNorm (running
/// statistics), ReLU and pooling work per element or per image. Counts
/// correct predictions directly (argmax == label) and reduces integer
/// counts, so the result carries no per-batch rounding drift.
float evaluate(nn::Layer& model, const data::SyntheticImageDataset& val,
               comm::Communicator& comm, int64_t eval_batch);

// ---- epoch-boundary K-FAC schedule decay (paper §V-C) ---------------------
//
// Exposed as pure functions of (config, epoch) so the once-per-threshold
// contract is testable without running training: each listed epoch
// threshold contributes exactly one decay factor, recomputed from the base
// value every epoch (crossing a threshold twice is impossible).

/// Damping γ for `epoch`: base damping times `damping_decay_factor` once
/// per crossed threshold in `damping_decay_epochs`.
float decayed_damping(const TrainConfig& config, int epoch);

struct UpdateFreqs {
  int factor_update_freq = 1;
  int inv_update_freq = 1;
};

/// K-FAC update intervals for `epoch`: the inverse interval scaled by
/// `freq_decay_factor` once per crossed threshold, the factor interval
/// re-derived as inv/10 (min 1) and snapped so inv % fac == 0 — the
/// divisibility contract KfacOptions::validate() enforces.
UpdateFreqs decayed_update_freqs(const TrainConfig& config, int epoch);

}  // namespace dkfac::train

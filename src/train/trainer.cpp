#include "train/trainer.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "comm/arena.hpp"
#include "comm/async_executor.hpp"
#include "comm/cost_model.hpp"
#include "comm/net/faultnet.hpp"
#include "comm/thread_comm.hpp"
#include "core/preconditioner.hpp"
#include "nn/loss.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "optim/adam.hpp"
#include "optim/lars.hpp"
#include "optim/sgd.hpp"

namespace dkfac::train {

namespace {

/// Scripted-fault phase probe — one relaxed load when no plan is armed.
inline void faultnet_phase(comm::net::faultnet::Phase phase) {
  if (comm::net::faultnet::active()) comm::net::faultnet::at_phase(phase);
}

/// Type-erased inner optimizer so the loop is optimizer-agnostic.
class AnyOptimizer {
 public:
  virtual ~AnyOptimizer() = default;
  virtual void step() = 0;
  virtual void set_lr(float lr) = 0;
};

std::unique_ptr<AnyOptimizer> make_optimizer(const TrainConfig& config,
                                             std::vector<nn::Parameter*> params,
                                             float initial_lr) {
  struct SgdBox final : AnyOptimizer {
    optim::Sgd inner;
    explicit SgdBox(optim::Sgd o) : inner(std::move(o)) {}
    void step() override { inner.step(); }
    void set_lr(float lr) override { inner.set_lr(lr); }
  };
  struct AdamBox final : AnyOptimizer {
    optim::Adam inner;
    explicit AdamBox(optim::Adam o) : inner(std::move(o)) {}
    void step() override { inner.step(); }
    void set_lr(float lr) override { inner.set_lr(lr); }
  };
  struct LarsBox final : AnyOptimizer {
    optim::Lars inner;
    explicit LarsBox(optim::Lars o) : inner(std::move(o)) {}
    void step() override { inner.step(); }
    void set_lr(float lr) override { inner.set_lr(lr); }
  };
  switch (config.optimizer) {
    case OptimizerKind::kSgd:
      return std::make_unique<SgdBox>(
          optim::Sgd(std::move(params), {.lr = initial_lr,
                                         .momentum = config.momentum,
                                         .weight_decay = config.weight_decay}));
    case OptimizerKind::kAdam:
      return std::make_unique<AdamBox>(
          optim::Adam(std::move(params),
                      {.lr = initial_lr, .weight_decay = config.weight_decay}));
    case OptimizerKind::kLars:
      return std::make_unique<LarsBox>(
          optim::Lars(std::move(params), {.lr = initial_lr,
                                          .momentum = config.momentum,
                                          .weight_decay = config.weight_decay}));
  }
  DKFAC_CHECK(false) << "unknown optimizer kind";
  return nullptr;
}

}  // namespace

float evaluate(nn::Layer& model, const data::SyntheticImageDataset& val,
               comm::Communicator& comm, int64_t eval_batch) {
  DKFAC_TRACE_SCOPE("train.eval");
  model.set_training(false);
  // Rank-strided shard of the validation set.
  int64_t correct = 0;
  int64_t seen = 0;
  std::vector<int64_t> indices;
  for (int64_t start = comm.rank() * eval_batch; start < val.size();
       start += static_cast<int64_t>(comm.size()) * eval_batch) {
    const int64_t end = std::min(start + eval_batch, val.size());
    indices.resize(static_cast<size_t>(end - start));
    for (int64_t i = start; i < end; ++i) {
      indices[static_cast<size_t>(i - start)] = i;
    }
    data::Batch batch = val.get(indices);
    Tensor logits = model.forward(batch.images);
    correct += nn::correct_predictions(logits, batch.labels);
    seen += batch.size();
  }
  // Integer counts ride the float collective exactly (FP32 is lossless for
  // counts below 2^24 — far beyond any validation split here).
  std::vector<float> counts{static_cast<float>(correct), static_cast<float>(seen)};
  comm.allreduce(counts, comm::ReduceOp::kSum);
  model.set_training(true);
  DKFAC_CHECK(counts[1] > 0.0f) << "validation split empty";
  return counts[0] / counts[1];
}

float decayed_damping(const TrainConfig& config, int epoch) {
  float d = config.kfac.damping;
  for (float de : config.damping_decay_epochs) {
    if (static_cast<float>(epoch) >= de) d *= config.damping_decay_factor;
  }
  return d;
}

UpdateFreqs decayed_update_freqs(const TrainConfig& config, int epoch) {
  float interval = static_cast<float>(config.kfac.inv_update_freq);
  for (float fe : config.freq_decay_epochs) {
    if (static_cast<float>(epoch) >= fe) interval *= config.freq_decay_factor;
  }
  const int inv = std::max(1, static_cast<int>(interval + 0.5f));
  int fac = std::max(1, inv / 10);
  if (inv % fac != 0) fac = 1;  // keep the divisibility contract
  return {fac, inv};
}

TrainResult train_with_comm(const ModelFactory& factory,
                            const data::SyntheticSpec& data_spec,
                            const TrainConfig& config,
                            comm::Communicator& comm) {
  const data::SyntheticImageDataset train_set(
      data_spec, data::SyntheticImageDataset::Split::kTrain);
  const data::SyntheticImageDataset val_set(
      data_spec, data::SyntheticImageDataset::Split::kVal);
  const data::ShardedLoader loader(train_set, config.local_batch, comm.rank(),
                                   comm.size(), config.data_seed);

  // Identical seed → identical replicas; the broadcast in Listing 1 is a
  // no-op here but we keep it for semantic fidelity.
  Rng model_rng(config.model_seed);
  nn::LayerPtr model = factory(model_rng);
  std::vector<nn::Parameter*> params = model->parameters();
  for (nn::Parameter* p : params) comm.broadcast(p->value, /*root=*/0);
  // Rejoin hook: a re-formed elastic group restores the last durable
  // checkpoint over the fresh replicas (every rank loads the same file).
  if (config.on_model_init) config.on_model_init(*model);
  comm.reset_stats();

  const optim::LrSchedule schedule(config.lr);
  std::unique_ptr<AnyOptimizer> optimizer =
      make_optimizer(config, params, schedule.lr_at(0.0f));

  // Overlapped communication pipeline (Horovod §II-D): a background worker
  // fuses and reduces whatever the readiness hooks submit while this
  // thread keeps computing. The only protocol rule: wait() before issuing
  // a collective directly on `comm` (the preconditioner and the epoch-end
  // reductions below follow it). Both thresholds come from the backend's
  // own fabric model: shared-memory collectives launch eagerly after tens
  // of KB, the TCP backend holds batches until they are bandwidth-
  // dominated at its much higher per-frame latency.
  const comm::CostModel& cost = comm.cost_model();
  std::optional<comm::AsyncExecutor> executor;
  if (config.overlap_comm) {
    executor.emplace(comm, cost.recommended_fusion_bytes(comm.size()),
                     cost.recommended_eager_bytes(comm.size()));
  }
  // Synchronous path: the fused gradient allreduce goes through the same
  // capacity-chunked FusionBuffer the factor exchange uses, instead of
  // materialising one monolithic all-parameter buffer per iteration —
  // same bits (chunking never changes an elementwise reduction), bounded
  // staging memory.
  std::optional<comm::FusionBuffer> grad_fusion;
  if (!executor && comm.size() > 1) {
    grad_fusion.emplace(comm, cost.recommended_fusion_bytes(comm.size()));
  }

  std::optional<kfac::KfacPreconditioner> kfac;
  float damping = config.kfac.damping;
  if (config.use_kfac) {
    kfac::KfacOptions opts = config.kfac;
    opts.lr = schedule.lr_at(0.0f);
    opts.overlap_comm = opts.overlap_comm || config.overlap_comm;
    kfac.emplace(*model, comm, opts);
    if (executor) kfac->set_async_executor(&*executor);
  }

  // Per-layer readiness hook: the moment a layer finishes backprop, its
  // parameter gradients enter the pipeline — gradient communication
  // overlaps the backprop of the layers that come before it. Every rank
  // walks the same model in the same order, so submission sequences (and
  // therefore collective sequences) match across ranks.
  std::shared_ptr<const nn::BackwardHook> ready_hook;
  if (executor && comm.size() > 1) {
    ready_hook = std::make_shared<const nn::BackwardHook>(
        [&executor](nn::Layer& layer) {
          for (nn::Parameter* p : layer.local_parameters()) {
            executor->submit(p->grad.span(), comm::ReduceOp::kAverage);
          }
        });
    model->set_backward_hook(ready_hook);
  }

  TrainResult result;
  DKFAC_TRACE_SCOPE_NAMED(run_span, "train.run");
  const int64_t batches = loader.batches_per_epoch();

  // Per-step metrics stream (--metrics). Observability-only: phase times
  // come from the spans below, which run either way, the CommStats /
  // ArenaStats snapshot is copied at the gradient-sync point — the one
  // spot where the async worker is provably idle, so reading the shared
  // counters races nothing — and no collective is added or moved.
  // Rank 0 only: thread ranks share one config (and one filesystem), so a
  // single writer keeps the JSONL coherent; rank 0's view is the same one
  // train_distributed already reports.
  std::optional<obs::StepMetricsLogger> metrics_logger;
  if (!config.metrics_path.empty() && comm.rank() == 0) {
    metrics_logger.emplace(config.metrics_path);
  }
  uint64_t global_step = 0;

  DKFAC_CHECK(config.start_epoch >= 0) << "start_epoch must be non-negative";
  for (int epoch = config.start_epoch; epoch < config.epochs; ++epoch) {
    DKFAC_TRACE_SCOPE_NAMED(epoch_span, "train.epoch");

    // Damping and update-frequency decay at epoch boundaries (paper §V-C).
    if (kfac) {
      const float d = decayed_damping(config, epoch);
      if (d != damping) {
        damping = d;
        kfac->set_damping(damping);
      }
      if (!config.freq_decay_epochs.empty()) {
        const UpdateFreqs freqs = decayed_update_freqs(config, epoch);
        kfac->set_update_freqs(freqs.factor_update_freq, freqs.inv_update_freq);
      }
    }

    double loss_sum = 0.0;
    double acc_sum = 0.0;
    for (int64_t b = 0; b < batches; ++b) {
      DKFAC_TRACE_SCOPE_NAMED(step_span, "train.step");
      if (step_span.active()) {
        step_span.set_arg("epoch", static_cast<uint64_t>(epoch));
        step_span.set_arg("batch", static_cast<uint64_t>(b));
      }
      if (config.step_probe) config.step_probe(epoch, b);
      // Cooperative regrow: the supervisor signalled that a joiner is
      // parked at the rendezvous. Leave BEFORE any collective of this step
      // — every rank polls the same signal, so the group departs together.
      if (config.reform_poll && config.reform_poll()) {
        throw comm::RegrowRequest(
            "elastic: regrow requested — re-forming at the next generation");
      }
      // Scripted faults: publish the (epoch, step) context for epoch=/step=
      // rule matching and fire phase=step rules.
      if (comm::net::faultnet::active()) {
        comm::net::faultnet::set_step(epoch, b);
      }
      const float frac_epoch =
          static_cast<float>(epoch) +
          static_cast<float>(b) / static_cast<float>(batches);
      const float lr = schedule.lr_at(frac_epoch);
      optimizer->set_lr(lr);
      if (kfac) kfac->set_lr(lr);

      data::Batch batch = loader.batch(epoch, b);
      model->zero_grad();
      Tensor logits;
      {
        DKFAC_TRACE_SCOPE("train.forward");
        faultnet_phase(comm::net::faultnet::Phase::kForward);
        logits = model->forward(batch.images);
      }
      nn::LossResult loss =
          nn::softmax_cross_entropy(logits, batch.labels, config.label_smoothing);
      // With overlap on, the readiness hooks stream per-layer gradient
      // allreduces into the executor DURING this call.
      {
        DKFAC_TRACE_SCOPE("train.backward");
        faultnet_phase(comm::net::faultnet::Phase::kBackward);
        model->backward(loss.grad);
      }
      // This rank's compute time so far: the straggler vote's input.
      const double compute_seconds = step_span.seconds();

      {
        DKFAC_TRACE_SCOPE("train.grad_comm");
        faultnet_phase(comm::net::faultnet::Phase::kGradComm);
        if (executor) {
          executor->wait();  // optimizer.synchronize(): grads now averaged
        } else if (grad_fusion) {
          // Horovod's DistributedOptimizer.synchronize(): every parameter
          // gradient rides one fused, capacity-chunked allreduce.
          for (nn::Parameter* p : params) grad_fusion->add(p->grad);
          grad_fusion->execute(comm::ReduceOp::kAverage);
        }
      }
      // The async worker is provably idle here (wait() above drained it, or
      // there is no worker): the one race-free spot to copy the shared
      // counters. Factor comm submitted by kfac->step() below is in flight
      // past this point and lands in the NEXT step's snapshot.
      comm::CommStats stats_snapshot;
      comm::ArenaStats arena_snapshot;
      if (metrics_logger) {
        stats_snapshot = comm.stats();
        if (executor) stats_snapshot.async = executor->stats();
        if (kfac) arena_snapshot += kfac->arena_stats();
        if (executor) arena_snapshot += executor->arena_stats();
        if (grad_fusion) arena_snapshot += grad_fusion->arena_stats();
      }
      // Warm-up ends after the first full iteration: every comm-path arena
      // has seen its peak payload (gradients, factors, staging chunks), so
      // any later block allocation is a zero-copy regression — counted in
      // steady_state_allocs and asserted zero by the integration tests.
      if (epoch == config.start_epoch && b == 1) {
        if (kfac) kfac->mark_steady_state();
        if (executor) executor->mark_steady_state();
        if (grad_fusion) grad_fusion->mark_steady_state();
      }
      // Straggler slack (elastic training): on factor-update steps, vote
      // on the compute-time spread across ranks. The ranks are already
      // synchronised at this point (the gradient allreduce above), so the
      // 2-float kMax vote adds negligible latency; `max − min > slack`
      // means some rank fell behind, and ALL ranks shed this step's factor
      // update (the paper's update-frequency-decay semantics) instead of
      // stalling the exchange behind it. The decision is collective — one
      // vote, one outcome — so collective sequences stay aligned.
      // (Not at step 0: the first factor update can never be shed — there
      // is no previous decomposition to fall back on.)
      if (kfac && config.straggler_slack_s > 0.0 && comm.size() > 1 &&
          global_step > 0 && kfac->factor_update_due()) {
        DKFAC_TRACE_SCOPE("elastic.straggler_vote");
        double mine = compute_seconds;
        if (config.straggler_lag_hook) {
          mine += config.straggler_lag_hook(comm.rank(),
                                            static_cast<int64_t>(global_step));
        }
        if (executor) executor->wait();  // vote runs directly on `comm`
        float vote[2] = {static_cast<float>(mine),
                         static_cast<float>(-mine)};
        comm.allreduce(std::span<float>(vote, 2), comm::ReduceOp::kMax);
        const double spread =
            static_cast<double>(vote[0]) + static_cast<double>(vote[1]);
        if (spread > config.straggler_slack_s) {
          kfac->skip_factor_update_once();
          ++result.skipped_factor_steps;
        }
      }
      {
        DKFAC_TRACE_SCOPE("train.apply");
        faultnet_phase(comm::net::faultnet::Phase::kApply);
        if (kfac) kfac->step();                 // preconditioner.step()
        optimizer->step();                      // optimizer.step()
      }
      step_span.close();  // the step ends here, before record() reads it

      loss_sum += loss.loss;
      acc_sum += nn::accuracy(logits, batch.labels);
      ++result.iterations;
      ++global_step;

      if (metrics_logger) {
        obs::StepSample sample;
        sample.step = global_step;
        sample.epoch = static_cast<uint64_t>(epoch);
        sample.loss = loss.loss;
        sample.accuracy = acc_sum / static_cast<double>(b + 1);
        sample.lr = lr;
        sample.elastic_reformations = config.elastic_reformations;
        sample.elastic_skipped_factor_steps =
            config.skipped_factor_steps_baseline + result.skipped_factor_steps;
        sample.elastic_joins = config.elastic_joins;
        sample.elastic_respawns = config.elastic_respawns;
        metrics_logger->record(sample, stats_snapshot,
                               kfac ? &kfac->last_report() : nullptr,
                               arena_snapshot);
      }
    }

    EpochMetrics metrics;
    metrics.epoch = epoch + 1;
    // Drain the pipeline (the last step's factor exchange may still be in
    // flight) before touching the communicator directly.
    if (executor) executor->wait();
    // Average the per-rank training loss so the curve reflects the global
    // batch (cheap: one 2-float allreduce per epoch).
    std::vector<float> stats{static_cast<float>(loss_sum / batches),
                             static_cast<float>(acc_sum / batches)};
    comm.allreduce(stats, comm::ReduceOp::kAverage);
    metrics.train_loss = stats[0];
    metrics.train_accuracy = stats[1];
    metrics.val_accuracy = evaluate(*model, val_set, comm, config.eval_batch);
    metrics.seconds = epoch_span.seconds();
    result.epochs.push_back(metrics);
    result.best_val_accuracy = std::max(result.best_val_accuracy, metrics.val_accuracy);
    // Durable elastic checkpoint: rank 0 persists the epoch's weights so a
    // re-formed group can rejoin at this exact boundary.
    if (comm.rank() == 0 && config.on_epoch_checkpoint) {
      config.on_epoch_checkpoint(epoch, *model);
    }
  }

  result.final_val_accuracy =
      result.epochs.empty() ? 0.0f : result.epochs.back().val_accuracy;
  result.total_seconds = run_span.seconds();
  model->set_backward_hook(nullptr);
  result.comm_stats = comm.stats();
  if (executor) result.comm_stats.async = executor->stats();
  // Comm-arena allocator traffic, summed over every arena on the per-step
  // path (factor exchange slot + each fusion staging arena). After the
  // warm-up mark above, steady_state_allocs must stay 0 — the zero-copy
  // transport's contract.
  comm::ArenaStats arenas;
  if (kfac) arenas += kfac->arena_stats();
  if (executor) arenas += executor->arena_stats();
  if (grad_fusion) arenas += grad_fusion->arena_stats();
  result.comm_stats.arena_bytes_reserved = arenas.bytes_reserved;
  result.comm_stats.steady_state_allocs = arenas.steady_state_allocs;
  if (comm.rank() == 0 && config.on_trained_model) {
    config.on_trained_model(*model);
  }
  return result;
}

TrainResult train_distributed(const ModelFactory& factory,
                              const data::SyntheticSpec& data_spec,
                              const TrainConfig& config, int world_size) {
  DKFAC_CHECK(world_size >= 1);
  if (world_size == 1) return train_single(factory, data_spec, config);

  comm::LocalGroup group(world_size);
  std::vector<TrainResult> results(static_cast<size_t>(world_size));
  // Divide the machine's cores between ranks so nested OpenMP GEMMs do not
  // oversubscribe (each rank thread gets its own OpenMP team).
  const int omp_threads = omp_threads_per_rank(world_size);
  group.run([&](int rank, comm::Communicator& comm) {
    omp_set_num_threads(omp_threads);
    results[static_cast<size_t>(rank)] =
        train_with_comm(factory, data_spec, config, comm);
  });

  // All ranks compute identical training metrics (collectives are
  // deterministic). CommStats are per-rank contribution counters —
  // broadcast bytes land on the root, allgather bytes on the sender — so
  // rank 0's view is one rank's share of the traffic, not the group total.
  return results[0];
}

int omp_threads_per_rank(int world_size) {
  DKFAC_CHECK(world_size >= 1);
  return std::max(1, omp_get_num_procs() / world_size);
}

TrainResult train_single(const ModelFactory& factory,
                         const data::SyntheticSpec& data_spec,
                         const TrainConfig& config) {
  comm::SelfComm comm;
  return train_with_comm(factory, data_spec, config, comm);
}

}  // namespace dkfac::train

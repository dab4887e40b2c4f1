#include "traced_loop.hpp"

#include <omp.h>

#include <memory>
#include <optional>
#include <vector>

#include "comm/arena.hpp"
#include "comm/async_executor.hpp"
#include "comm/fusion.hpp"
#include "common/error.hpp"
#include "core/preconditioner.hpp"
#include "data/loader.hpp"
#include "linalg/eigen.hpp"
#include "nn/loss.hpp"
#include "optim/lr_schedule.hpp"
#include "optim/sgd.hpp"

namespace perfbench {

namespace {

/// The rows of the step in flight; committed once the next step's start
/// closes it inside the same epoch (the end-to-end step time is measured
/// the same way, start to start).
struct StepRows {
  int64_t ns[kRowCount] = {};
  bool factor_updated = false;
  bool decomp_updated = false;
  uint64_t factor_bytes = 0;
};

}  // namespace

void traced_train(const Workload& w, dkfac::comm::Communicator& comm,
                  RankReport& out) {
  using namespace dkfac;
  out.enter_ns = now_ns();
  omp_set_num_threads(w.omp_threads);
  const train::TrainConfig config = w.train_config();
  const data::SyntheticSpec data_spec = w.data_spec();
  const train::ModelFactory factory = w.model_factory();
  RankReport::Traced& t = out.traced;
  const bool lead = comm.rank() == 0;

  // ---- set-up, in train_with_comm's order ----------------------------------
  int64_t mark = now_ns();
  const data::SyntheticImageDataset train_set(
      data_spec, data::SyntheticImageDataset::Split::kTrain);
  const data::SyntheticImageDataset val_set(
      data_spec, data::SyntheticImageDataset::Split::kVal);
  const data::ShardedLoader loader(train_set, config.local_batch, comm.rank(),
                                   comm.size(), config.data_seed);
  t.setup_data_ns = now_ns() - mark;

  mark = now_ns();
  Rng model_rng(config.model_seed);
  nn::LayerPtr model = factory(model_rng);
  std::vector<nn::Parameter*> params = model->parameters();
  for (nn::Parameter* p : params) comm.broadcast(p->value, /*root=*/0);
  comm.reset_stats();
  const optim::LrSchedule schedule(config.lr);
  optim::Sgd optimizer(params, {.lr = schedule.lr_at(0.0f),
                                .momentum = config.momentum,
                                .weight_decay = config.weight_decay});
  t.setup_model_ns = now_ns() - mark;

  mark = now_ns();
  const comm::CostModel& cost = comm.cost_model();
  std::optional<comm::AsyncExecutor> executor;
  if (config.overlap_comm) {
    executor.emplace(comm, cost.recommended_fusion_bytes(comm.size()),
                     cost.recommended_eager_bytes(comm.size()));
  }
  std::optional<comm::FusionBuffer> grad_fusion;
  if (!executor && comm.size() > 1) {
    grad_fusion.emplace(comm, cost.recommended_fusion_bytes(comm.size()));
  }
  std::optional<kfac::KfacPreconditioner> kfac;
  if (config.use_kfac) {
    kfac::KfacOptions opts = config.kfac;
    opts.lr = schedule.lr_at(0.0f);
    opts.overlap_comm = opts.overlap_comm || config.overlap_comm;
    kfac.emplace(*model, comm, opts);
    if (executor) kfac->set_async_executor(&*executor);
  }
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
  t.setup_kfac_ns = now_ns() - mark;

  // ---- the step loop ---------------------------------------------------------
  const int64_t batches = loader.batches_per_epoch();
  const int64_t origin = now_ns();
  int64_t global_step = 0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    double loss_sum = 0.0;
    double acc_sum = 0.0;
    StepRows rows;
    bool open_step_timed = false;  // a timed step of this epoch awaits closing
    int64_t open_step_start = 0;
    std::optional<comm::CommStats> prev_stats;
    comm::AsyncCommStats prev_async;
    for (int64_t b = 0; b < batches; ++b) {
      const int64_t top = now_ns();
      if (lead && out.steps < kMaxSteps) {
        out.step_ns[out.steps] = top;
        out.step_epoch[out.steps] = epoch;
        ++out.steps;
      }
      if (global_step == Workload::kWarmupSteps) t.warmup_ns = top - origin;
      if (open_step_timed) {
        ++t.timed_steps;
        t.step_ns_total += top - open_step_start;
        for (int r = 0; r < kRowCount; ++r) {
          t.row_ns[r] += rows.ns[r];
          if (rows.ns[r] > 0) ++t.row_calls[r];
        }
        if (rows.factor_updated) {
          ++t.factor_updates;
          t.factor_bytes += rows.factor_bytes;
        }
        if (rows.decomp_updated) ++t.decomp_updates;
      }
      const bool timed = global_step >= Workload::kWarmupSteps;
      rows = StepRows{};
      const auto span = [&](Row row, int64_t start) { rows.ns[row] += now_ns() - start; };

      const float frac_epoch =
          static_cast<float>(epoch) +
          static_cast<float>(b) / static_cast<float>(batches);
      const float lr = schedule.lr_at(frac_epoch);
      optimizer.set_lr(lr);
      if (kfac) kfac->set_lr(lr);

      int64_t start = now_ns();
      data::Batch batch = loader.batch(epoch, b);
      span(kData, start);
      model->zero_grad();
      start = now_ns();
      Tensor logits = model->forward(batch.images);
      span(kForward, start);
      start = now_ns();
      nn::LossResult loss =
          nn::softmax_cross_entropy(logits, batch.labels, config.label_smoothing);
      span(kLoss, start);
      start = now_ns();
      model->backward(loss.grad);
      span(kBackward, start);

      // Spans only around calls that exist: on one worker without K-FAC the
      // comm and core rows stay exactly 0.
      if (executor) {
        start = now_ns();
        executor->wait();
        span(kGradComm, start);
      } else if (grad_fusion) {
        start = now_ns();
        for (nn::Parameter* p : params) grad_fusion->add(p->grad);
        grad_fusion->execute(comm::ReduceOp::kAverage);
        span(kGradComm, start);
      }

      // The gradient-sync point: the async worker is idle, so the shared
      // counters can be read without racing it. Deltas between consecutive
      // sync points of one epoch are one step's communication.
      comm::CommStats now_stats = comm.stats();
      const comm::AsyncCommStats now_async =
          executor ? executor->stats() : comm::AsyncCommStats{};
      if (prev_stats && global_step > Workload::kWarmupSteps) {
        ++t.count_steps;
        t.calls += (now_stats.allreduce_calls + now_stats.allgather_calls +
                    now_stats.broadcast_calls) -
                   (prev_stats->allreduce_calls + prev_stats->allgather_calls +
                    prev_stats->broadcast_calls);
        t.bytes += now_stats.total_bytes() - prev_stats->total_bytes();
        t.wire_sent += now_stats.wire_sent_bytes - prev_stats->wire_sent_bytes;
        t.async_comm_s += now_async.comm_seconds - prev_async.comm_seconds;
        t.async_wait_s += now_async.wait_seconds - prev_async.wait_seconds;
      }
      prev_stats = now_stats;
      prev_async = now_async;

      if (epoch == 0 && b == 1) {
        if (kfac) kfac->mark_steady_state();
        if (executor) executor->mark_steady_state();
        if (grad_fusion) grad_fusion->mark_steady_state();
      }

      // The preconditioner call, attributed by what it did.
      if (kfac) {
        start = now_ns();
        kfac->step();
        const kfac::KfacPreconditioner::StepReport& report = kfac->last_report();
        span(report.decompositions_updated ? kDecompStep : kFactorStep, start);
        rows.factor_updated = report.factors_updated;
        rows.decomp_updated = report.decompositions_updated;
        rows.factor_bytes = report.factor_comm_bytes;
      }
      start = now_ns();
      optimizer.step();
      span(kOptim, start);

      loss_sum += loss.loss;
      acc_sum += nn::accuracy(logits, batch.labels);
      ++global_step;
      open_step_timed = timed;
      open_step_start = top;
    }

    if (executor) executor->wait();
    std::vector<float> stats{static_cast<float>(loss_sum / batches),
                             static_cast<float>(acc_sum / batches)};
    comm.allreduce(stats, comm::ReduceOp::kAverage);
    const int64_t eval_start = now_ns();
    const float val_acc = train::evaluate(*model, val_set, comm, config.eval_batch);
    const int64_t eval_end = now_ns();
    t.eval_ns += eval_end - eval_start;
    ++t.eval_calls;
    if (lead) {
      out.epoch_end_ns[out.epochs] = eval_end;
      out.val_acc[out.epochs] = val_acc;
      out.train_loss[out.epochs] = stats[0];
      ++out.epochs;
    }
  }
  model->set_backward_hook(nullptr);

  comm::ArenaStats arenas;
  if (kfac) arenas += kfac->arena_stats();
  if (executor) arenas += executor->arena_stats();
  if (grad_fusion) arenas += grad_fusion->arena_stats();
  out.arena_bytes_reserved = arenas.bytes_reserved;
  out.steady_state_allocs = arenas.steady_state_allocs;
  if (!lead) return;
  out.param_hash = hash_parameters(*model);

  // Decompositions of the factors this rank owns, outside the timed steps:
  // the work a rank does on every inverse-update step.
  if (!kfac) return;
  std::vector<Tensor> factors;
  const std::vector<nn::KfacCapturable*> layers = model->kfac_layers();
  for (int64_t f : kfac->assignment().owned_by(comm.rank())) {
    const nn::KfacCapturable* layer = layers[static_cast<size_t>(f / 2)];
    factors.push_back(f % 2 == 0 ? layer->kfac_a_factor() : layer->kfac_g_factor());
  }
  const int64_t eig_start = now_ns();
  for (const Tensor& factor : factors) (void)linalg::sym_eig(factor);
  t.sym_eig_ns = now_ns() - eig_start;
}

}  // namespace perfbench

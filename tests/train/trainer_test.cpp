#include "train/trainer.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "comm/codec.hpp"
#include "comm/thread_comm.hpp"
#include "common/error.hpp"
#include "nn/loss.hpp"
#include "nn/resnet.hpp"

namespace dkfac::train {
namespace {

// Tiny-but-real setup: 8×8 images, 4 classes, small MLP-free CNN path.
data::SyntheticSpec tiny_spec() {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.channels = 3;
  spec.height = spec.width = 8;
  spec.grid = 2;
  spec.train_size = 256;
  spec.val_size = 64;
  spec.noise = 0.6f;
  spec.seed = 77;
  return spec;
}

ModelFactory tiny_cnn_factory() {
  return [](Rng& rng) { return nn::simple_cnn(3, 4, rng, 4); };
}

TrainConfig tiny_config(int epochs = 3) {
  TrainConfig config;
  config.local_batch = 32;
  config.epochs = epochs;
  config.lr = {.base_lr = 0.05f, .warmup_epochs = 1.0f};
  config.momentum = 0.9f;
  config.eval_batch = 64;
  return config;
}

TEST(Trainer, SgdLearnsTinyProblem) {
  TrainResult result = train_single(tiny_cnn_factory(), tiny_spec(), tiny_config(6));
  ASSERT_EQ(result.epochs.size(), 6u);
  // Loss decreases and accuracy clears chance (0.25) comfortably.
  EXPECT_LT(result.epochs.back().train_loss, result.epochs.front().train_loss);
  EXPECT_GT(result.final_val_accuracy, 0.5f);
  EXPECT_EQ(result.iterations, 6 * (256 / 32));
}

TEST(Trainer, KfacRunsAndLearns) {
  TrainConfig config = tiny_config(6);
  config.use_kfac = true;
  config.kfac.damping = 0.01f;
  config.kfac.with_update_freq(10);
  TrainResult result =
      train_single(tiny_cnn_factory(), tiny_spec(), config);
  EXPECT_GT(result.final_val_accuracy, 0.5f);
}

TEST(Trainer, DistributedMatchesSingleRankGlobalBatch) {
  // 2 ranks × batch 16 must equal 1 rank × batch 32 (same global batch,
  // deterministic collectives) — the bitwise data-parallel equivalence the
  // design doc promises (§ Key design decisions, determinism).
  TrainConfig single = tiny_config(2);
  single.local_batch = 32;
  TrainConfig dist = single;
  dist.local_batch = 16;

  TrainResult r1 = train_single(tiny_cnn_factory(), tiny_spec(), single);
  TrainResult r2 = train_distributed(tiny_cnn_factory(), tiny_spec(), dist, 2);

  ASSERT_EQ(r1.epochs.size(), r2.epochs.size());
  for (size_t e = 0; e < r1.epochs.size(); ++e) {
    EXPECT_NEAR(r1.epochs[e].val_accuracy, r2.epochs[e].val_accuracy, 0.08f)
        << "epoch " << e;
  }
  EXPECT_NEAR(r1.final_val_accuracy, r2.final_val_accuracy, 0.08f);
}

TEST(Trainer, DistributedKfacConvergesAcrossRanks) {
  TrainConfig config = tiny_config(3);
  config.local_batch = 16;
  config.use_kfac = true;
  config.kfac.with_update_freq(5);
  TrainResult result =
      train_distributed(tiny_cnn_factory(), tiny_spec(), config, 2);
  EXPECT_EQ(result.iterations, 3 * (256 / 32));
  EXPECT_GT(result.final_val_accuracy, 0.3f);
}

TEST(Trainer, CommStatsTrackKfacSavings) {
  // With a large update interval, total bytes must be dominated by the
  // per-iteration gradient allreduce, not K-FAC traffic.
  TrainConfig frequent = tiny_config(2);
  frequent.local_batch = 16;
  frequent.use_kfac = true;
  frequent.kfac.factor_update_freq = 1;
  frequent.kfac.inv_update_freq = 1;

  TrainConfig rare = frequent;
  rare.kfac.factor_update_freq = 8;
  rare.kfac.inv_update_freq = 8;

  TrainResult r_frequent =
      train_distributed(tiny_cnn_factory(), tiny_spec(), frequent, 2);
  TrainResult r_rare = train_distributed(tiny_cnn_factory(), tiny_spec(), rare, 2);
  EXPECT_LT(r_rare.comm_stats.total_bytes(), r_frequent.comm_stats.total_bytes());
}

TEST(Trainer, EpochsToReach) {
  TrainResult result;
  result.epochs = {{1, 0, 0, 0.3f, 0}, {2, 0, 0, 0.6f, 0}, {3, 0, 0, 0.7f, 0}};
  EXPECT_EQ(result.epochs_to_reach(0.5f), 2);
  EXPECT_EQ(result.epochs_to_reach(0.9f), -1);
}

TEST(Trainer, DampingDecayScheduleRuns) {
  TrainConfig config = tiny_config(3);
  config.use_kfac = true;
  config.kfac.damping = 0.1f;
  config.damping_decay_epochs = {1.0f, 2.0f};
  config.damping_decay_factor = 0.5f;
  // Smoke: runs to completion with the decay path exercised.
  TrainResult result = train_single(tiny_cnn_factory(), tiny_spec(), config);
  EXPECT_EQ(result.epochs.size(), 3u);
}

TEST(Trainer, UpdateFreqDecayScheduleRuns) {
  TrainConfig config = tiny_config(3);
  config.use_kfac = true;
  config.kfac.with_update_freq(8);
  config.freq_decay_epochs = {1.0f, 2.0f};
  config.freq_decay_factor = 0.5f;
  TrainResult result = train_single(tiny_cnn_factory(), tiny_spec(), config);
  EXPECT_EQ(result.epochs.size(), 3u);
  EXPECT_GT(result.final_val_accuracy, 0.25f);
}

TEST(Trainer, InvalidWorldSizeThrows) {
  EXPECT_THROW(
      train_distributed(tiny_cnn_factory(), tiny_spec(), tiny_config(1), 0),
      Error);
}

TEST(Trainer, DecayedDampingAppliesOncePerThreshold) {
  TrainConfig config = tiny_config();
  config.kfac.damping = 0.1f;
  config.damping_decay_epochs = {2.0f, 4.0f};
  config.damping_decay_factor = 0.5f;
  // Recomputed from the base each epoch: each threshold contributes its
  // factor exactly once, no matter how many epochs sit past it.
  EXPECT_FLOAT_EQ(decayed_damping(config, 0), 0.1f);
  EXPECT_FLOAT_EQ(decayed_damping(config, 1), 0.1f);
  EXPECT_FLOAT_EQ(decayed_damping(config, 2), 0.05f);
  EXPECT_FLOAT_EQ(decayed_damping(config, 3), 0.05f);
  EXPECT_FLOAT_EQ(decayed_damping(config, 4), 0.025f);
  EXPECT_FLOAT_EQ(decayed_damping(config, 9), 0.025f);
}

TEST(Trainer, DecayedUpdateFreqsKeepDivisibilityContract) {
  TrainConfig config = tiny_config();
  config.kfac.with_update_freq(100);
  config.freq_decay_epochs = {1.0f, 2.0f, 3.0f};
  config.freq_decay_factor = 0.5f;
  for (int epoch = 0; epoch < 6; ++epoch) {
    const UpdateFreqs freqs = decayed_update_freqs(config, epoch);
    EXPECT_GE(freqs.factor_update_freq, 1) << "epoch " << epoch;
    EXPECT_GE(freqs.inv_update_freq, 1) << "epoch " << epoch;
    EXPECT_EQ(freqs.inv_update_freq % freqs.factor_update_freq, 0)
        << "epoch " << epoch;
    // Must survive the same validation the preconditioner setters run.
    kfac::KfacOptions opts = config.kfac;
    opts.factor_update_freq = freqs.factor_update_freq;
    opts.inv_update_freq = freqs.inv_update_freq;
    EXPECT_NO_THROW(opts.validate()) << "epoch " << epoch;
  }
  EXPECT_EQ(decayed_update_freqs(config, 0).inv_update_freq, 100);
  EXPECT_EQ(decayed_update_freqs(config, 1).inv_update_freq, 50);
  EXPECT_EQ(decayed_update_freqs(config, 2).inv_update_freq, 25);
  // 25/2 rounds to 13, fac snaps to 1 to keep inv % fac == 0.
  EXPECT_EQ(decayed_update_freqs(config, 3).inv_update_freq, 13);
  EXPECT_EQ(decayed_update_freqs(config, 3).factor_update_freq, 1);
  // Decay floors at 1, never 0.
  config.freq_decay_factor = 0.01f;
  EXPECT_EQ(decayed_update_freqs(config, 5).inv_update_freq, 1);
  EXPECT_EQ(decayed_update_freqs(config, 5).factor_update_freq, 1);
}

TEST(Trainer, OverlapCommMatchesSynchronousBitwise) {
  // The overlapped pipeline reorders WHEN communication happens, never
  // WHAT is reduced: per-epoch metrics must match the synchronous path
  // exactly (deterministic collectives + elementwise reductions).
  TrainConfig sync_config = tiny_config(2);
  sync_config.local_batch = 16;
  sync_config.use_kfac = true;
  sync_config.kfac.with_update_freq(4);
  TrainConfig overlap_config = sync_config;
  overlap_config.overlap_comm = true;

  TrainResult sync_result =
      train_distributed(tiny_cnn_factory(), tiny_spec(), sync_config, 2);
  TrainResult overlap_result =
      train_distributed(tiny_cnn_factory(), tiny_spec(), overlap_config, 2);

  ASSERT_EQ(sync_result.epochs.size(), overlap_result.epochs.size());
  for (size_t e = 0; e < sync_result.epochs.size(); ++e) {
    EXPECT_EQ(sync_result.epochs[e].train_loss,
              overlap_result.epochs[e].train_loss)
        << "epoch " << e;
    EXPECT_EQ(sync_result.epochs[e].train_accuracy,
              overlap_result.epochs[e].train_accuracy)
        << "epoch " << e;
    EXPECT_EQ(sync_result.epochs[e].val_accuracy,
              overlap_result.epochs[e].val_accuracy)
        << "epoch " << e;
  }
  EXPECT_EQ(sync_result.final_val_accuracy, overlap_result.final_val_accuracy);

  // The pipeline really ran: per-layer gradients + factor exchanges.
  EXPECT_GT(overlap_result.comm_stats.async.submitted, 0u);
  EXPECT_GT(overlap_result.comm_stats.async.batches, 0u);
  EXPECT_EQ(sync_result.comm_stats.async.submitted, 0u);
}

TEST(Trainer, OverlapCommWithoutKfacAlsoMatches) {
  TrainConfig sync_config = tiny_config(2);
  sync_config.local_batch = 16;
  TrainConfig overlap_config = sync_config;
  overlap_config.overlap_comm = true;

  TrainResult sync_result =
      train_distributed(tiny_cnn_factory(), tiny_spec(), sync_config, 2);
  TrainResult overlap_result =
      train_distributed(tiny_cnn_factory(), tiny_spec(), overlap_config, 2);
  ASSERT_EQ(sync_result.epochs.size(), overlap_result.epochs.size());
  for (size_t e = 0; e < sync_result.epochs.size(); ++e) {
    EXPECT_EQ(sync_result.epochs[e].val_accuracy,
              overlap_result.epochs[e].val_accuracy)
        << "epoch " << e;
  }
}

TEST(Trainer, SteadyStateCommPathNeverTouchesHeap) {
  // The zero-copy transport contract: after the first full iteration every
  // comm-path arena (exchange slot, fusion staging) has seen its peak
  // payload, so the rest of training must not grow a single block — under
  // both the synchronous and the overlapped pipeline. with_update_freq(2)
  // makes every second step an inverse-update step, so the decomposition
  // gather (K-FAC-opt) runs through the exchange slot in steady state too;
  // K-FAC-lw gathers preconditioned gradients through it every step.
  for (const kfac::InverseMethod method :
       {kfac::InverseMethod::kEigenDecomposition,
        kfac::InverseMethod::kExplicitInverse}) {
    for (const comm::Precision precision :
         {comm::Precision::kFp32, comm::Precision::kBf16}) {
      for (const kfac::DistributionStrategy strategy :
           {kfac::DistributionStrategy::kFactorWise,
            kfac::DistributionStrategy::kLayerWise}) {
        for (const bool overlap : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "method " << static_cast<int>(method)
                       << ", precision " << comm::precision_name(precision)
                       << ", strategy " << static_cast<int>(strategy)
                       << (overlap ? ", overlap" : ", sync"));
          TrainConfig config = tiny_config(2);
          config.local_batch = 16;
          config.use_kfac = true;
          config.kfac.inverse_method = method;
          config.kfac.factor_precision = precision;
          config.kfac.strategy = strategy;
          config.kfac.with_update_freq(2);
          config.overlap_comm = overlap;
          TrainResult result =
              train_distributed(tiny_cnn_factory(), tiny_spec(), config, 2);
          EXPECT_GT(result.comm_stats.arena_bytes_reserved, 0u);
          EXPECT_EQ(result.comm_stats.steady_state_allocs, 0u);
        }
      }
    }
  }
}

TEST(Trainer, OverlapCommSingleRankRuns) {
  // World size 1: no peers to talk to, but the toggle must still work.
  TrainConfig config = tiny_config(2);
  config.overlap_comm = true;
  config.use_kfac = true;
  config.kfac.with_update_freq(4);
  TrainResult result = train_single(tiny_cnn_factory(), tiny_spec(), config);
  EXPECT_EQ(result.epochs.size(), 2u);
  EXPECT_GT(result.final_val_accuracy, 0.25f);
}

/// Wraps a model and records every batch it forwards: its size and its
/// images, in order.
class ForwardProbe final : public nn::Layer {
 public:
  explicit ForwardProbe(nn::LayerPtr inner) : inner_(std::move(inner)) {}

  Tensor forward(const Tensor& x) override {
    batch_sizes.push_back(x.dim(0));
    images.insert(images.end(), x.data(), x.data() + x.numel());
    return inner_->forward(x);
  }
  std::vector<nn::Layer*> children() override { return {inner_.get()}; }
  std::string name() const override { return "probe"; }
  nn::Layer& inner() { return *inner_; }

  std::vector<int64_t> batch_sizes;
  std::vector<float> images;

 protected:
  Tensor backward_impl(const Tensor& grad) override {
    return inner_->backward(grad);
  }

 private:
  nn::LayerPtr inner_;
};

/// Rank `rank`'s rank-strided shard of a `val_size` split: blocks rank,
/// rank + world, ... of `eval_batch` images each.
std::vector<int64_t> shard_of(int rank, int world, int64_t val_size,
                              int64_t eval_batch) {
  std::vector<int64_t> shard;
  for (int64_t block = rank * eval_batch; block < val_size;
       block += world * eval_batch) {
    for (int64_t i = block; i < std::min(block + eval_batch, val_size); ++i) {
      shard.push_back(i);
    }
  }
  return shard;
}

TEST(Evaluate, MicroBatchesItsOwnShard) {
  // evaluate() forwards each rank's rank-strided shard, in order, in
  // micro-batches of at most kEvalMicroBatch images, on that rank's own
  // replica. The replicas share trained weights, but their BatchNorm
  // running statistics differ, as they do after training. So the accuracy
  // must equal a reference that forwards each rank's whole shard at once
  // on its replica: scoring an image on another replica changes it. The
  // probe pins which images each rank forwards.
  std::vector<Tensor> weights;
  TrainConfig pretrain = tiny_config(2);
  pretrain.on_trained_model = [&](nn::Layer& trained) {
    for (nn::Parameter* p : trained.parameters()) weights.push_back(p->value);
  };
  train_single(tiny_cnn_factory(), tiny_spec(), pretrain);

  for (const int world : {1, 2, 4}) {
    for (const auto& [val_size, eval_batch] :
         {std::pair<int64_t, int64_t>{512, 256}, {300, 64}}) {
      SCOPED_TRACE(::testing::Message() << world << " ranks, val_size "
                                        << val_size << ", eval_batch "
                                        << eval_batch);
      data::SyntheticSpec spec = tiny_spec();
      spec.val_size = val_size;
      const data::SyntheticImageDataset val(
          spec, data::SyntheticImageDataset::Split::kVal);
      std::vector<float> accuracy(static_cast<size_t>(world));
      std::vector<int64_t> reference_correct(static_cast<size_t>(world));
      std::vector<std::vector<int64_t>> batch_sizes(static_cast<size_t>(world));
      std::vector<std::vector<float>> images(static_cast<size_t>(world));
      comm::LocalGroup group(world);
      group.run([&](int rank, comm::Communicator& comm) {
        omp_set_num_threads(omp_threads_per_rank(world));  // as the trainer
        const auto r = static_cast<size_t>(rank);
        Rng init(5);
        ForwardProbe model(tiny_cnn_factory()(init));
        const std::vector<nn::Parameter*> params = model.parameters();
        for (size_t i = 0; i < params.size(); ++i) {
          params[i]->value = weights[i];
        }
        // Training-mode forwards of rank-specific data move this replica's
        // BatchNorm running statistics away from the others'.
        Rng data_rng(100 + static_cast<uint64_t>(rank));
        const auto shift = static_cast<float>(2 * rank);
        for (int i = 0; i < 10; ++i) {
          model.inner().forward(Tensor::randn(Shape{8, 3, 8, 8}, data_rng,
                                              shift, 1.0f + shift));
        }
        accuracy[r] = evaluate(model, val, comm, eval_batch);
        batch_sizes[r] = model.batch_sizes;
        images[r] = model.images;

        const std::vector<int64_t> shard =
            shard_of(rank, world, val_size, eval_batch);
        if (shard.empty()) return;
        const data::Batch batch = val.get(shard);
        model.inner().set_training(false);
        reference_correct[r] = nn::correct_predictions(
            model.inner().forward(batch.images), batch.labels);
      });

      int64_t correct = 0;
      for (const int64_t c : reference_correct) correct += c;
      const float reference =
          static_cast<float>(correct) / static_cast<float>(val_size);
      for (int rank = 0; rank < world; ++rank) {
        const auto r = static_cast<size_t>(rank);
        EXPECT_EQ(accuracy[r], reference) << "rank " << rank;
        for (const int64_t n : batch_sizes[r]) {
          EXPECT_LE(n, kEvalMicroBatch) << "rank " << rank;
        }
        const std::vector<int64_t> shard =
            shard_of(rank, world, val_size, eval_batch);
        std::vector<float> want;
        if (!shard.empty()) {
          const Tensor x = val.get(shard).images;
          want.assign(x.data(), x.data() + x.numel());
        }
        EXPECT_EQ(images[r], want)
            << "rank " << rank << " forwarded other images than its shard's "
            << shard.size();
      }
    }
  }
}

}  // namespace
}  // namespace dkfac::train

// Elastic fault tolerance, end to end.
//
// The chaos case is the headline: a 4-rank socket-backend training run in
// which rank 2 SIGKILLs itself mid-epoch. The job must detect the death
// (typed PeerFailure within one comm deadline), re-form as a 3-rank group
// through the persistent rendezvous, resume from the last durable
// epoch-tagged checkpoint, and still converge — final loss within 0.05 of
// an undisturbed 4-rank baseline — with the recovery visible in the
// elastic.* metrics counters.
//
// Ordering note: the forked chaos case MUST run before any case that
// spawns OpenMP teams in this process (thread-backed training, or even a
// model forward), for the same fork()-safety reason documented in
// socket_train_parity_test.cpp. Keep it first in this file.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "train/elastic.hpp"
#include "train/trainer.hpp"

namespace dkfac::train {
namespace {

data::SyntheticSpec tiny_spec() {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.channels = 3;
  spec.height = spec.width = 8;
  spec.grid = 2;
  spec.train_size = 128;
  spec.val_size = 64;
  spec.noise = 0.6f;
  spec.seed = 77;
  return spec;
}

ModelFactory tiny_cnn_factory() {
  return [](Rng& rng) { return nn::simple_cnn(3, 4, rng, 4); };
}

TrainConfig tiny_config() {
  TrainConfig config;
  config.local_batch = 8;
  config.epochs = 3;
  config.lr = {.base_lr = 0.05f, .warmup_epochs = 1.0f};
  config.momentum = 0.9f;
  config.eval_batch = 16;
  config.use_kfac = true;
  config.kfac.damping = 0.01f;
  config.kfac.with_update_freq(2);
  return config;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ElasticTrain, SurvivesRankDeathMidRunAndConverges) {
  const std::string dir = ::testing::TempDir();
  const TrainConfig config = tiny_config();

  elastic::ElasticOptions opts;
  opts.initial_ranks = 4;
  opts.min_ranks = 2;
  opts.comm_timeout_s = 10.0;
  opts.rendezvous_timeout_s = 20.0;

  // Undisturbed 4-rank baseline (also the elastic happy path: generation 0
  // runs to completion with zero re-formations). Checkpoints resume — a
  // stale one from an earlier ctest invocation would skip training
  // entirely — so start every run from a clean slate.
  opts.checkpoint_path = dir + "dkfac_elastic_baseline.ckpt";
  std::remove(opts.checkpoint_path.c_str());
  const elastic::ElasticResult baseline =
      elastic::run_elastic(tiny_cnn_factory(), tiny_spec(), config, opts);
  ASSERT_TRUE(baseline.completed) << "exit code " << baseline.exit_code;
  EXPECT_EQ(baseline.reformations, 0);
  EXPECT_EQ(baseline.final_world, 4);

  // Chaos: rank 2 SIGKILLs itself at the top of (epoch 1, step 1) — after
  // the epoch-0 checkpoint is durable, before epoch 1 finishes. Survivors
  // must re-form as a 3-rank generation 1 and resume from epoch 1.
  TrainConfig chaos_config = config;
  chaos_config.metrics_path = dir + "dkfac_elastic_chaos_metrics.jsonl";
  elastic::ElasticOptions chaos_opts = opts;
  chaos_opts.checkpoint_path = dir + "dkfac_elastic_chaos.ckpt";
  std::remove(chaos_opts.checkpoint_path.c_str());
  std::remove(chaos_config.metrics_path.c_str());
  chaos_opts.kill = elastic::KillSpec{/*rank=*/2, /*epoch=*/1, /*step=*/1};
  const elastic::ElasticResult chaos = elastic::run_elastic(
      tiny_cnn_factory(), tiny_spec(), chaos_config, chaos_opts);
  ASSERT_TRUE(chaos.completed) << "exit code " << chaos.exit_code;
  EXPECT_GE(chaos.reformations, 1);
  EXPECT_EQ(chaos.final_world, 3);
  EXPECT_NEAR(chaos.final_train_loss, baseline.final_train_loss, 0.05);

  // The surviving group kept checkpointing: the durable tag reached the
  // final epoch.
  EXPECT_EQ(
      elastic::read_elastic_epoch_tag(chaos_opts.checkpoint_path).value_or(-1),
      config.epochs - 1);

  // Recovery is observable: the metrics stream carries the elastic
  // counters, and the final records (written by generation ≥ 1's rank 0)
  // show at least one re-formation.
  const std::string metrics = slurp(chaos_config.metrics_path);
  ASSERT_FALSE(metrics.empty());
  EXPECT_NE(metrics.find("\"elastic.reformations\""), std::string::npos);
  EXPECT_NE(metrics.find("\"elastic.skipped_factor_steps\""),
            std::string::npos);
  EXPECT_NE(metrics.find("\"elastic.reformations\":1"), std::string::npos);
}

TEST(ElasticTrain, FailsCleanlyBelowMinRanks) {
  // Killing a rank out of a 2-rank group with min_ranks=2 is unsurvivable:
  // the supervisor must terminate the job and report a failure, not hang.
  const std::string dir = ::testing::TempDir();
  TrainConfig config = tiny_config();
  config.epochs = 2;
  elastic::ElasticOptions opts;
  opts.initial_ranks = 2;
  opts.min_ranks = 2;
  opts.comm_timeout_s = 5.0;
  opts.rendezvous_timeout_s = 15.0;
  opts.checkpoint_path = dir + "dkfac_elastic_unsurvivable.ckpt";
  std::remove(opts.checkpoint_path.c_str());
  opts.kill = elastic::KillSpec{/*rank=*/1, /*epoch=*/0, /*step=*/2};
  const elastic::ElasticResult result =
      elastic::run_elastic(tiny_cnn_factory(), tiny_spec(), config, opts);
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.exit_code, 0);
}

TEST(ElasticTrain, SlowRankZeroStillPublishesAfterPeersExit) {
  // Forked — keep before the OpenMP cases. Rank 0 finishes last: it runs
  // on_trained_model and publishes the result after its peers have exited
  // cleanly. Those exits leave one rank alive, below min_ranks, but they
  // are no loss: the supervisor must let rank 0 finish and publish, not
  // terminate the job.
  const std::string dir = ::testing::TempDir();
  TrainConfig config = tiny_config();
  config.epochs = 1;
  config.on_trained_model = [](nn::Layer&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  };
  elastic::ElasticOptions opts;
  opts.initial_ranks = 3;
  opts.min_ranks = 2;
  opts.comm_timeout_s = 10.0;
  opts.rendezvous_timeout_s = 20.0;
  opts.checkpoint_path = dir + "dkfac_elastic_slow_rank0.ckpt";
  std::remove(opts.checkpoint_path.c_str());
  const elastic::ElasticResult result =
      elastic::run_elastic(tiny_cnn_factory(), tiny_spec(), config, opts);
  ASSERT_TRUE(result.completed) << "exit code " << result.exit_code;
  EXPECT_EQ(result.reformations, 0);
  EXPECT_EQ(result.final_world, 3);
}

TEST(ElasticRegrow, KilledRankIsReplacedAndWorldGrowsBack) {
  // Scale-up headline (forked — keep before the OpenMP cases): rank 2
  // SIGKILLs itself mid-epoch, and with a respawn budget the supervisor
  // forks a replacement that joins at the next generation boundary —
  // shrink, recover, regrow to the initial world, and still converge to
  // within 0.05 of the undisturbed baseline.
  const std::string dir = ::testing::TempDir();
  TrainConfig config = tiny_config();
  // One epoch more than the shrink case: the restarted epoch rebuilds
  // momentum and K-FAC factor state from scratch, and the extra epoch lets
  // both runs settle back to the same attractor for the 0.05 loss check.
  config.epochs = 4;

  elastic::ElasticOptions opts;
  opts.initial_ranks = 4;
  opts.min_ranks = 2;
  opts.comm_timeout_s = 10.0;
  opts.rendezvous_timeout_s = 20.0;

  opts.checkpoint_path = dir + "dkfac_regrow_baseline.ckpt";
  std::remove(opts.checkpoint_path.c_str());
  const elastic::ElasticResult baseline =
      elastic::run_elastic(tiny_cnn_factory(), tiny_spec(), config, opts);
  ASSERT_TRUE(baseline.completed) << "exit code " << baseline.exit_code;
  EXPECT_EQ(baseline.respawns, 0);
  EXPECT_EQ(baseline.joins, 0);

  TrainConfig chaos_config = config;
  chaos_config.metrics_path = dir + "dkfac_regrow_metrics.jsonl";
  elastic::ElasticOptions chaos_opts = opts;
  chaos_opts.checkpoint_path = dir + "dkfac_regrow_chaos.ckpt";
  chaos_opts.respawns_per_rank = 1;  // max_ranks defaults to initial_ranks
  std::remove(chaos_opts.checkpoint_path.c_str());
  std::remove(chaos_config.metrics_path.c_str());
  chaos_opts.kill = elastic::KillSpec{/*rank=*/2, /*epoch=*/1, /*step=*/1};
  const elastic::ElasticResult chaos = elastic::run_elastic(
      tiny_cnn_factory(), tiny_spec(), chaos_config, chaos_opts);
  ASSERT_TRUE(chaos.completed) << "exit code " << chaos.exit_code;
  EXPECT_GE(chaos.reformations, 1);
  EXPECT_EQ(chaos.final_world, 4) << "the world did not grow back";
  EXPECT_GE(chaos.respawns, 1);
  EXPECT_GE(chaos.joins, 1);
  EXPECT_NEAR(chaos.final_train_loss, baseline.final_train_loss, 0.05);

  // The regrow is observable: rank 0's metrics stream carries the scale-up
  // counters, with the join recorded in the final generation's records.
  const std::string metrics = slurp(chaos_config.metrics_path);
  ASSERT_FALSE(metrics.empty());
  EXPECT_NE(metrics.find("\"elastic.joins\""), std::string::npos);
  EXPECT_NE(metrics.find("\"elastic.respawns\""), std::string::npos);
  EXPECT_NE(metrics.find("\"elastic.joins\":1"), std::string::npos);
}

TEST(ElasticRegrow, LateJoinerIsAdmittedViaRegrowNudge) {
  // Forked — keep before the OpenMP cases. A long respawn backoff makes
  // the survivors re-form WITHOUT the replacement; when it finally parks
  // at the rendezvous the supervisor must nudge the running group
  // (SIGUSR1 → RegrowRequest at the next step) into re-forming so the
  // joiner is admitted — the generation-boundary path, not the
  // form-together path. Steps are slowed so the shrunk group is still
  // training when the joiner arrives.
  const std::string dir = ::testing::TempDir();
  TrainConfig config = tiny_config();
  config.epochs = 4;
  config.step_probe = [](int, int64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  };

  elastic::ElasticOptions opts;
  opts.initial_ranks = 4;
  opts.min_ranks = 2;
  opts.comm_timeout_s = 10.0;
  opts.rendezvous_timeout_s = 20.0;
  opts.respawns_per_rank = 1;
  opts.respawn_backoff_s = 1.5;  // survivors re-form well before this
  opts.checkpoint_path = dir + "dkfac_regrow_nudge.ckpt";
  std::remove(opts.checkpoint_path.c_str());
  opts.kill = elastic::KillSpec{/*rank=*/2, /*epoch=*/1, /*step=*/1};

  const elastic::ElasticResult result =
      elastic::run_elastic(tiny_cnn_factory(), tiny_spec(), config, opts);
  ASSERT_TRUE(result.completed) << "exit code " << result.exit_code;
  EXPECT_EQ(result.final_world, 4) << "the late joiner was never admitted";
  EXPECT_EQ(result.respawns, 1);
  EXPECT_GE(result.joins, 1);
  // At least two boundaries: the shrink re-formation and the regrow.
  EXPECT_GE(result.reformations, 2);
}

TEST(ElasticStraggler, SlowRankShedsFactorUpdatesForAllRanks) {
  // Thread-backed (spawns OpenMP — keep after the forked cases): rank 3
  // reports 200 ms of simulated lag into every straggler vote, far past
  // the 50 ms slack, so every sheddable factor-update step is shed. The
  // decision is collective — the run completing at all proves all ranks
  // agreed on every vote (a split decision desynchronises the collective
  // sequence and deadlocks).
  TrainConfig config = tiny_config();
  config.epochs = 2;
  config.straggler_slack_s = 0.05;
  config.straggler_lag_hook = [](int rank, int64_t) {
    return rank == 3 ? 0.2 : 0.0;
  };
  const TrainResult slacked =
      train_distributed(tiny_cnn_factory(), tiny_spec(), config, 4);
  // 8 steps, factor updates due every step (with_update_freq(2) puts the
  // factor interval at max(1, 2/10) = 1), step 0 never sheddable: 7 shed.
  EXPECT_EQ(slacked.skipped_factor_steps, 7u);
  EXPECT_GT(slacked.epochs.back().train_accuracy, 0.25f);

  // Slack off (the default): identical run, nothing shed.
  config.straggler_slack_s = 0.0;
  const TrainResult plain =
      train_distributed(tiny_cnn_factory(), tiny_spec(), config, 4);
  EXPECT_EQ(plain.skipped_factor_steps, 0u);
}

TEST(ElasticCheckpoint, EpochTagRoundTrips) {
  Rng rng_a(21), rng_b(22);
  nn::LayerPtr original = nn::simple_cnn(3, 4, rng_a, 4);
  nn::LayerPtr restored = nn::simple_cnn(3, 4, rng_b, 4);
  const std::string path = ::testing::TempDir() + "dkfac_elastic_tag.ckpt";

  elastic::save_elastic_checkpoint(*original, 7, path);
  EXPECT_EQ(elastic::read_elastic_epoch_tag(path).value_or(-1), 7);
  EXPECT_EQ(elastic::load_elastic_checkpoint(*restored, path), 7);

  auto pa = original->parameters();
  auto pb = restored->parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i]->value == pb[i]->value) << pa[i]->name;
  }
}

TEST(ElasticCheckpoint, MissingOrGarbageFilesAreNotCheckpoints) {
  const std::string dir = ::testing::TempDir();
  EXPECT_EQ(elastic::read_elastic_epoch_tag(dir + "does_not_exist.ckpt"),
            std::nullopt);
  EXPECT_EQ(elastic::resolve_elastic_checkpoint(dir + "does_not_exist.ckpt"),
            std::nullopt);

  const std::string garbage = dir + "dkfac_elastic_garbage.ckpt";
  {
    std::ofstream out(garbage, std::ios::binary | std::ios::trunc);
    out << "this is not a checkpoint";
  }
  EXPECT_EQ(elastic::read_elastic_epoch_tag(garbage), std::nullopt);

  Rng rng(23);
  nn::LayerPtr model = nn::simple_cnn(3, 4, rng, 4);
  EXPECT_THROW(elastic::load_elastic_checkpoint(*model, garbage), Error);
}

TEST(ElasticCheckpoint, TruncatedNewestFallsBackToPreviousEpoch) {
  // Regression for the torn-write rejoin: each save rotates the prior file
  // to `.prev`, and a newest entry whose tail is truncated (the classic
  // crash-mid-write shape) must fail its CRC footer and resolve to the
  // previous intact epoch — never be half-loaded, never a hang or crash.
  Rng rng(31);
  nn::LayerPtr model = nn::simple_cnn(3, 4, rng, 4);
  const std::string path =
      ::testing::TempDir() + "dkfac_elastic_fallback.ckpt";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());

  elastic::save_elastic_checkpoint(*model, 1, path);
  elastic::save_elastic_checkpoint(*model, 2, path);

  // Intact: the newest epoch wins, no fallback.
  auto resolved = elastic::resolve_elastic_checkpoint(path);
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(resolved->epoch, 2);
  EXPECT_FALSE(resolved->fell_back);

  // Truncate the tail of the newest entry.
  const std::string full = slurp(path);
  ASSERT_GT(full.size(), 16u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size() - 9));
  }
  EXPECT_EQ(elastic::read_elastic_epoch_tag(path), std::nullopt);
  resolved = elastic::resolve_elastic_checkpoint(path);
  ASSERT_TRUE(resolved.has_value());
  EXPECT_TRUE(resolved->fell_back);
  EXPECT_EQ(resolved->epoch, 1);
  Rng rng2(32);
  nn::LayerPtr restored = nn::simple_cnn(3, 4, rng2, 4);
  EXPECT_EQ(elastic::load_elastic_checkpoint(*restored, resolved->file), 1);

  // A flipped payload byte (bit rot) takes the same fallback.
  {
    std::string corrupt = full;
    corrupt[corrupt.size() / 2] ^= 0x20;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  }
  resolved = elastic::resolve_elastic_checkpoint(path);
  ASSERT_TRUE(resolved.has_value());
  EXPECT_TRUE(resolved->fell_back);
  EXPECT_EQ(resolved->epoch, 1);
}

TEST(ElasticCheckpoint, CorruptionWithoutIntactPreviousIsTypedError) {
  Rng rng(33);
  nn::LayerPtr model = nn::simple_cnn(3, 4, rng, 4);
  const std::string path =
      ::testing::TempDir() + "dkfac_elastic_no_fallback.ckpt";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());

  // First save: no `.prev` exists yet. Corrupting the only copy must be a
  // typed Error — restarting silently from random weights would be worse
  // than failing.
  elastic::save_elastic_checkpoint(*model, 1, path);
  std::string bytes = slurp(path);
  bytes[bytes.size() / 2] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW((void)elastic::resolve_elastic_checkpoint(path), Error);

  // A missing newest with only a stale `.prev` is a fresh start, not a
  // resurrection of an old epoch.
  elastic::save_elastic_checkpoint(*model, 1, path);
  elastic::save_elastic_checkpoint(*model, 2, path);
  std::remove(path.c_str());
  EXPECT_EQ(elastic::resolve_elastic_checkpoint(path), std::nullopt);
}

}  // namespace
}  // namespace dkfac::train

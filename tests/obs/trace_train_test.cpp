// End-to-end observability contracts on a real (tiny) training run:
// tracing ON produces bitwise-identical training to tracing OFF
// (checkpoint bytes and per-epoch metrics), every trainer phase records
// spans, --metrics-style JSONL carries one parseable record per step, and
// on thread ranks its durations are rank 0's own span times.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "json_util.hpp"
#include "nn/resnet.hpp"
#include "nn/serialize.hpp"
#include "obs/trace.hpp"
#include "train/trainer.hpp"

namespace dkfac::obs {
namespace {

using testing::JsonValue;
using testing::parse_json;

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

train::ModelFactory tiny_cnn_factory() {
  return [](Rng& rng) { return nn::simple_cnn(3, 4, rng, 4); };
}

train::TrainConfig tiny_config(int epochs) {
  train::TrainConfig config;
  config.local_batch = 16;
  config.epochs = epochs;
  config.lr = {.base_lr = 0.05f, .warmup_epochs = 1.0f};
  config.momentum = 0.9f;
  config.eval_batch = 64;
  config.use_kfac = true;
  config.kfac.damping = 0.01f;
  config.kfac.with_update_freq(4);
  config.overlap_comm = true;  // exercise the async executor spans
  return config;
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

struct RunOutput {
  train::TrainResult result;
  std::vector<char> checkpoint;
};

RunOutput run_tiny(bool tracing, const std::string& tag,
                   const std::string& metrics_path = "") {
  Tracer& tracer = Tracer::instance();
  if (tracing) {
    tracer.enable();
    tracer.clear();
  } else {
    tracer.disable();
  }
  const std::string ckpt =
      ::testing::TempDir() + "dkfac_trace_parity_" + tag + ".ckpt";
  train::TrainConfig config = tiny_config(2);
  config.metrics_path = metrics_path;
  config.on_trained_model = [&ckpt](nn::Layer& model) {
    nn::save_checkpoint(model, ckpt);
  };
  RunOutput out;
  out.result =
      train::train_distributed(tiny_cnn_factory(), tiny_spec(), config, 2);
  out.checkpoint = file_bytes(ckpt);
  tracer.disable();
  return out;
}

TEST(TraceTrain, TrainingIsBitwiseIdenticalTraceOnVsOff) {
  const std::string metrics =
      ::testing::TempDir() + "dkfac_trace_parity_metrics.jsonl";
  const RunOutput off = run_tiny(false, "off");
  const RunOutput on = run_tiny(true, "on", metrics);

  // Checkpoints byte-for-byte equal: instrumentation is observation only.
  ASSERT_FALSE(off.checkpoint.empty());
  EXPECT_EQ(off.checkpoint, on.checkpoint);

  // Per-epoch numbers exactly equal too (float ==, no tolerance).
  ASSERT_EQ(off.result.epochs.size(), on.result.epochs.size());
  for (size_t e = 0; e < off.result.epochs.size(); ++e) {
    EXPECT_EQ(off.result.epochs[e].train_loss, on.result.epochs[e].train_loss);
    EXPECT_EQ(off.result.epochs[e].val_accuracy,
              on.result.epochs[e].val_accuracy);
  }
}

TEST(TraceTrain, EveryTrainerPhaseRecordsSpans) {
  const RunOutput on = run_tiny(true, "phases");
  Tracer& tracer = Tracer::instance();
  const uint64_t steps = static_cast<uint64_t>(on.result.iterations);
  ASSERT_GT(steps, 0u);
  for (const char* phase : {"train.step", "train.forward", "train.backward",
                            "train.grad_comm", "train.apply", "data.load"}) {
    EXPECT_EQ(tracer.aggregate_count(phase), 2u * steps)  // 2 thread ranks
        << phase;
  }
  for (const char* phase :
       {"train.epoch", "train.eval", "kfac.step", "kfac.factor_update",
        "kfac.factor_stats", "kfac.factor_comm", "kfac.precondition",
        "kfac.decomposition", "comm.async.flush", "comm.async.wait"}) {
    EXPECT_GT(tracer.aggregate_count(phase), 0u) << phase;
  }
  // Decomposition matrices route intra (serialized/large) or inter
  // (concurrent small) depending on dims and machine; together they must
  // cover every decomposed factor.
  EXPECT_GT(tracer.aggregate_count("decomp.matrix.intra") +
                tracer.aggregate_count("decomp.matrix.inter"),
            0u);
}

TEST(TraceTrain, MetricsJsonlHasOneRecordPerStep) {
  const std::string metrics =
      ::testing::TempDir() + "dkfac_trace_train_metrics.jsonl";
  const RunOutput on = run_tiny(true, "jsonl", metrics);
  std::ifstream in(metrics);
  ASSERT_TRUE(in.good());
  std::string line;
  uint64_t step = 0;
  while (std::getline(in, line)) {
    const JsonValue root = parse_json(line);
    ++step;
    EXPECT_EQ(root.at("step").number(), static_cast<double>(step));
    for (const char* key :
         {"train.loss", "train.lr", "train.step_seconds",
          "comm.allreduce.bytes", "comm.async.submitted",
          "comm.overlap.hidden_seconds", "kfac.factor_updates",
          "arena.steady_allocs"}) {
      EXPECT_TRUE(root.has(key)) << key << " missing at step " << step;
    }
    EXPECT_GT(root.at("train.loss").number(), 0.0);
  }
  EXPECT_EQ(step, static_cast<uint64_t>(on.result.iterations));
}

TEST(TraceTrain, MetricsTimesAreOneRanksSpans) {
  // Gate off: the spans time themselves whether or not tracing records.
  Tracer::instance().disable();
  const std::string metrics =
      ::testing::TempDir() + "dkfac_trace_train_clock.jsonl";
  train::TrainConfig config = tiny_config(2);
  config.kfac.factor_update_freq = 2;  // some records without a factor update
  config.metrics_path = metrics;
  const train::TrainResult result =
      train::train_distributed(tiny_cnn_factory(), tiny_spec(), config, 2);

  std::ifstream in(metrics);
  ASSERT_TRUE(in.good());
  const int64_t batches =
      result.iterations / static_cast<int64_t>(result.epochs.size());
  std::vector<double> epoch_step_seconds(result.epochs.size(), 0.0);
  std::string line;
  int64_t records = 0;
  int64_t update_records = 0;
  double factor_updates = 0.0;
  while (std::getline(in, line)) {
    const JsonValue root = parse_json(line);
    ++records;
    const auto at = [&root](const char* key) { return root.at(key).number(); };
    // The phases nest inside the step on rank 0's main thread. 1e-9 covers
    // the JSONL's nine significant digits.
    const double phases = at("data.load_seconds") + at("train.forward_seconds") +
                          at("train.backward_seconds") +
                          at("comm.grad.seconds") + at("train.apply_seconds");
    EXPECT_LE(phases, at("train.step_seconds") + 1e-9) << "step " << records;
    epoch_step_seconds[static_cast<size_t>((records - 1) / batches)] +=
        at("train.step_seconds");
    // Factor time shows exactly on the steps that updated factors.
    const bool updated = at("kfac.factor_updates") > factor_updates;
    factor_updates = at("kfac.factor_updates");
    update_records += updated ? 1 : 0;
    EXPECT_EQ(at("kfac.factor_seconds") > 0.0, updated) << "step " << records;
    // Hidden plus exposed is all of the executor's collective time.
    const double comm = at("comm.async.comm_seconds");
    EXPECT_NEAR(at("comm.overlap.hidden_seconds") +
                    at("comm.overlap.exposed_seconds"),
                comm, 1e-8 * comm)
        << "step " << records;
  }
  EXPECT_EQ(records, result.iterations);
  EXPECT_GT(update_records, 0);
  EXPECT_LT(update_records, records);
  // And the steps nest inside rank 0's epoch, timed by its epoch span.
  for (size_t e = 0; e < result.epochs.size(); ++e) {
    EXPECT_LE(epoch_step_seconds[e], result.epochs[e].seconds + 1e-9)
        << "epoch " << e;
  }
}

}  // namespace
}  // namespace dkfac::obs

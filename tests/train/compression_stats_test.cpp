// CommStats invariants of the lossy factor-compression path.
//
// After a compressed training run the byte-accounting chain must be
// internally consistent: dense ≥ packed ≥ encoded for the factor
// reduction, the encoded bytes (not the fp32-equivalent) are what the
// allreduce counter carries, and the decomposition allgather shrinks the
// same way. Runs are deterministic, so every relation is asserted
// exactly — no tolerances.
#include <gtest/gtest.h>

#include <cstdint>

#include "comm/codec.hpp"
#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "train/trainer.hpp"

namespace dkfac::train {
namespace {

data::SyntheticSpec tiny_spec() {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.channels = 3;
  spec.height = spec.width = 8;
  spec.grid = 2;
  spec.train_size = 64;
  spec.val_size = 32;
  spec.noise = 0.6f;
  spec.seed = 99;
  return spec;
}

TrainResult run(comm::Precision precision, bool overlap) {
  TrainConfig config;
  config.local_batch = 8;
  config.epochs = 1;
  config.lr = {.base_lr = 0.05f, .warmup_epochs = 1.0f};
  config.eval_batch = 16;
  config.overlap_comm = overlap;
  config.use_kfac = true;
  config.kfac.damping = 0.01f;
  config.kfac.with_update_freq(2);
  config.kfac.factor_precision = precision;
  return train_distributed(
      [](Rng& rng) { return nn::simple_cnn(3, 4, rng, 4); }, tiny_spec(),
      config, /*world_size=*/2);
}

TEST(CompressionStats, ReductionChainHoldsAtEveryPrecision) {
  const TrainResult fp32 = run(comm::Precision::kFp32, false);
  const TrainResult fp16 = run(comm::Precision::kFp16, false);
  const TrainResult bf16 = run(comm::Precision::kBf16, false);

  // fp32 passthrough: encoding degenerates to the packed payload.
  EXPECT_GT(fp32.comm_stats.factor_dense_bytes,
            fp32.comm_stats.factor_packed_bytes);
  EXPECT_EQ(fp32.comm_stats.factor_packed_bytes,
            fp32.comm_stats.factor_encoded_bytes);

  for (const TrainResult* lossy : {&fp16, &bf16}) {
    const comm::CommStats& st = lossy->comm_stats;
    // dense ≥ packed ≥ encoded, strictly at a 16-bit precision.
    EXPECT_GT(st.factor_dense_bytes, st.factor_packed_bytes);
    EXPECT_GT(st.factor_packed_bytes, st.factor_encoded_bytes);
    // Identical schedule → identical structural payloads.
    EXPECT_EQ(st.factor_dense_bytes, fp32.comm_stats.factor_dense_bytes);
    EXPECT_EQ(st.factor_packed_bytes, fp32.comm_stats.factor_packed_bytes);
    // Encoded elements are 2 bytes + at most one pad slot per factor, so
    // the encoded payload is never more than half the packed one plus the
    // per-exchange padding, and never less than half.
    EXPECT_GE(st.factor_encoded_bytes, st.factor_packed_bytes / 2);
    // The encoded bytes are what the collectives actually carried: the
    // run-to-run allreduce gap is exactly the codec saving (gradient and
    // epoch-metric traffic are identical).
    EXPECT_EQ(fp32.comm_stats.allreduce_bytes - st.allreduce_bytes,
              st.factor_packed_bytes - st.factor_encoded_bytes);
    EXPECT_EQ(st.allreduce_calls, fp32.comm_stats.allreduce_calls);
    // The decomposition allgather is codec-encoded too.
    EXPECT_GT(fp32.comm_stats.decomp_packed_bytes, st.decomp_packed_bytes);
    EXPECT_EQ(st.decomp_dense_bytes, fp32.comm_stats.decomp_dense_bytes);
    EXPECT_EQ(fp32.comm_stats.allgather_bytes - st.allgather_bytes,
              fp32.comm_stats.decomp_packed_bytes - st.decomp_packed_bytes);
  }
}

TEST(CompressionStats, OverlapAndSyncAgreeBitwiseAndByteForByte) {
  // The async pipeline must ship exactly the same encoded bytes as the
  // synchronous path and land on bitwise-identical training results —
  // batching must not change a lossy reduction any more than a lossless
  // one.
  const TrainResult sync = run(comm::Precision::kBf16, false);
  const TrainResult overlap = run(comm::Precision::kBf16, true);
  EXPECT_EQ(sync.comm_stats.factor_encoded_bytes,
            overlap.comm_stats.factor_encoded_bytes);
  EXPECT_EQ(sync.comm_stats.allreduce_bytes, overlap.comm_stats.allreduce_bytes);
  ASSERT_EQ(sync.epochs.size(), overlap.epochs.size());
  EXPECT_EQ(sync.epochs.back().train_loss, overlap.epochs.back().train_loss);
  EXPECT_EQ(sync.final_val_accuracy, overlap.final_val_accuracy);
}

TEST(CompressionStats, LossyRunsDivergeFromFp32ButStayDeterministic) {
  const TrainResult a = run(comm::Precision::kBf16, false);
  const TrainResult b = run(comm::Precision::kBf16, false);
  const TrainResult fp32 = run(comm::Precision::kFp32, false);
  // Determinism: the identical lossy run reproduces bit for bit.
  EXPECT_EQ(a.epochs.back().train_loss, b.epochs.back().train_loss);
  EXPECT_EQ(a.final_val_accuracy, b.final_val_accuracy);
  // Lossiness: the compressed run is NOT the fp32 run (codec engaged).
  EXPECT_NE(a.epochs.back().train_loss, fp32.epochs.back().train_loss);
}

}  // namespace
}  // namespace dkfac::train

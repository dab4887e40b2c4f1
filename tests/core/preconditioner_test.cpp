#include "core/preconditioner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <mutex>

#include "common/error.hpp"
#include "comm/thread_comm.hpp"
#include "linalg/blas.hpp"
#include "nn/activation.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/resnet.hpp"
#include "nn/sequential.hpp"

namespace dkfac::kfac {
namespace {

using linalg::matmul;

/// Runs one forward/backward on a fixed synthetic batch so the K-FAC hooks
/// capture activations and output gradients.
void run_batch(nn::Layer& model, int64_t batch, int64_t in_dim, int64_t classes,
               uint64_t seed) {
  Rng rng(seed);
  Tensor x = Tensor::randn(Shape{batch, in_dim}, rng);
  std::vector<int64_t> labels(static_cast<size_t>(batch));
  for (int64_t i = 0; i < batch; ++i) {
    labels[static_cast<size_t>(i)] = i % classes;
  }
  model.zero_grad();
  Tensor logits = model.forward(x);
  nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
  model.backward(loss.grad);
}

KfacOptions base_options() {
  KfacOptions opts;
  opts.lr = 0.1f;
  opts.damping = 0.01f;
  opts.kl_clip = 1e6f;  // effectively disable ν so tests see raw preconditioning
  opts.factor_update_freq = 1;
  opts.inv_update_freq = 1;
  return opts;
}

TEST(KfacOptions, ValidationRules) {
  KfacOptions opts;
  EXPECT_NO_THROW(opts.validate());
  opts.damping = 0.0f;
  EXPECT_THROW(opts.validate(), Error);
  opts = {};
  opts.factor_update_freq = 3;
  opts.inv_update_freq = 10;  // not a multiple
  EXPECT_THROW(opts.validate(), Error);
  opts = {};
  opts.with_update_freq(100);
  EXPECT_EQ(opts.inv_update_freq, 100);
  EXPECT_EQ(opts.factor_update_freq, 10);
  opts.with_update_freq(5);
  EXPECT_EQ(opts.factor_update_freq, 1);
}

TEST(Kfac, RejectsModelWithoutEligibleLayers) {
  nn::Sequential empty;
  empty.emplace<nn::ReLU>("r");
  comm::SelfComm comm;
  EXPECT_THROW(KfacPreconditioner(empty, comm, base_options()), Error);
}

TEST(Kfac, DiscoversEligibleLayersAndDims) {
  Rng rng(100);
  nn::LayerPtr model = nn::mlp(6, 4, 3, rng);
  comm::SelfComm comm;
  KfacPreconditioner kfac(*model, comm, base_options());
  EXPECT_EQ(kfac.layer_count(), 3u);
  // fc1: A=7 (6+bias), G=4; fc2: A=5, G=4; fc3: A=5, G=3.
  EXPECT_EQ(kfac.factor_dims(), (std::vector<int64_t>{7, 4, 5, 4, 5, 3}));
}

// The defining invariant of the eigendecomposition path (Eqs 13–15):
// the preconditioned gradient P satisfies G·P·A + γ·P = ∇L.
TEST(Kfac, EigenPathSolvesDampedKroneckerSystem) {
  Rng rng(101);
  nn::Sequential model("m");
  model.emplace<nn::Linear>(5, 4, false, rng, "fc");
  auto* fc = dynamic_cast<nn::Linear*>(model.children()[0]);
  ASSERT_NE(fc, nullptr);

  run_batch(model, 16, 5, 4, 7);
  Tensor grad_before = fc->kfac_grad();
  Tensor a = fc->kfac_a_factor();
  Tensor g = fc->kfac_g_factor();

  comm::SelfComm comm;
  KfacOptions opts = base_options();
  KfacPreconditioner kfac(model, comm, opts);
  kfac.step();
  Tensor p = fc->kfac_grad();

  // G·P·A + γP ≈ ∇.
  Tensor reconstructed = matmul(matmul(g, p), a);
  reconstructed.axpy_(opts.damping, p);
  EXPECT_LT(linalg::frobenius_distance(reconstructed, grad_before),
            2e-2f * grad_before.norm() + 1e-4f);
}

// Explicit-inverse invariant (Eq 12): (G+γI)·P·(A+γI) = ∇L.
TEST(Kfac, InversePathSolvesFactorDampedSystem) {
  Rng rng(102);
  nn::Sequential model("m");
  model.emplace<nn::Linear>(4, 3, false, rng, "fc");
  auto* fc = dynamic_cast<nn::Linear*>(model.children()[0]);

  run_batch(model, 16, 4, 3, 8);
  Tensor grad_before = fc->kfac_grad();
  Tensor a = fc->kfac_a_factor();
  Tensor g = fc->kfac_g_factor();

  comm::SelfComm comm;
  KfacOptions opts = base_options();
  opts.inverse_method = InverseMethod::kExplicitInverse;
  KfacPreconditioner kfac(model, comm, opts);
  kfac.step();
  Tensor p = fc->kfac_grad();

  linalg::add_diagonal(a, opts.damping);
  linalg::add_diagonal(g, opts.damping);
  Tensor reconstructed = matmul(matmul(g, p), a);
  EXPECT_LT(linalg::frobenius_distance(reconstructed, grad_before),
            2e-2f * grad_before.norm() + 1e-4f);
}

TEST(Kfac, LargeDampingApproachesScaledIdentityPreconditioner) {
  // As γ → ∞, (F̂+γI)⁻¹ → I/γ: the preconditioned gradient aligns with the
  // original gradient and shrinks by γ.
  Rng rng(103);
  nn::Sequential model("m");
  model.emplace<nn::Linear>(6, 4, false, rng, "fc");
  auto* fc = dynamic_cast<nn::Linear*>(model.children()[0]);
  run_batch(model, 8, 6, 4, 9);
  Tensor grad = fc->kfac_grad();

  comm::SelfComm comm;
  KfacOptions opts = base_options();
  opts.damping = 1e6f;
  KfacPreconditioner kfac(model, comm, opts);
  kfac.step();
  Tensor p = fc->kfac_grad();
  p.scale_(opts.damping);
  EXPECT_LT(linalg::frobenius_distance(p, grad), 1e-2f * grad.norm() + 1e-5f);
}

TEST(Kfac, KlClipShrinksLargeUpdates) {
  Rng rng(104);
  nn::LayerPtr model = nn::mlp(6, 8, 3, rng);
  run_batch(*model, 8, 6, 3, 10);

  comm::SelfComm comm;
  KfacOptions opts = base_options();
  opts.kl_clip = 1e-9f;  // force ν « 1
  KfacPreconditioner kfac(*model, comm, opts);

  float norm_before = 0.0f;
  for (nn::KfacCapturable* l : model->kfac_layers()) {
    norm_before += l->kfac_grad().norm();
  }
  kfac.step();
  float norm_after = 0.0f;
  for (nn::KfacCapturable* l : model->kfac_layers()) {
    norm_after += l->kfac_grad().norm();
  }
  EXPECT_LT(norm_after, 0.1f * norm_before);
}

TEST(Kfac, StaleDecompositionsReused) {
  // With inv_update_freq=4, iterations 1..3 must not recompute or
  // re-communicate decompositions (paper §IV-C: skip lines 5–18).
  comm::LocalGroup group(2);
  group.run([&](int, comm::Communicator& comm) {
    Rng rng(105);
    nn::LayerPtr model = nn::mlp(4, 6, 3, rng);
    KfacOptions opts = base_options();
    opts.factor_update_freq = 2;
    opts.inv_update_freq = 4;
    KfacPreconditioner kfac(*model, comm, opts);

    run_batch(*model, 8, 4, 3, 11);
    kfac.step();  // iteration 0: factors + decomps
    EXPECT_TRUE(kfac.last_report().factors_updated);
    EXPECT_TRUE(kfac.last_report().decompositions_updated);
    const auto stats_after_first = comm.stats();

    run_batch(*model, 8, 4, 3, 12);
    kfac.step();  // iteration 1: fully local
    EXPECT_FALSE(kfac.last_report().factors_updated);
    EXPECT_FALSE(kfac.last_report().decompositions_updated);
    EXPECT_EQ(comm.stats().allreduce_calls, stats_after_first.allreduce_calls);
    EXPECT_EQ(comm.stats().allgather_calls, stats_after_first.allgather_calls);

    run_batch(*model, 8, 4, 3, 13);
    kfac.step();  // iteration 2: factors only
    EXPECT_TRUE(kfac.last_report().factors_updated);
    EXPECT_FALSE(kfac.last_report().decompositions_updated);
    EXPECT_GT(comm.stats().allreduce_calls, stats_after_first.allreduce_calls);
    EXPECT_EQ(comm.stats().allgather_calls, stats_after_first.allgather_calls);

    run_batch(*model, 8, 4, 3, 14);
    kfac.step();  // iteration 3: local again
    run_batch(*model, 8, 4, 3, 15);
    kfac.step();  // iteration 4: full refresh
    EXPECT_TRUE(kfac.last_report().decompositions_updated);
    EXPECT_GT(comm.stats().allgather_calls, stats_after_first.allgather_calls);
  });
}

TEST(Kfac, LayerWiseCommunicatesEveryIteration) {
  comm::LocalGroup group(2);
  group.run([&](int, comm::Communicator& comm) {
    Rng rng(106);
    nn::LayerPtr model = nn::mlp(4, 6, 3, rng);
    KfacOptions opts = base_options();
    opts.strategy = DistributionStrategy::kLayerWise;
    opts.factor_update_freq = 2;
    opts.inv_update_freq = 4;
    KfacPreconditioner kfac(*model, comm, opts);

    run_batch(*model, 8, 4, 3, 11);
    kfac.step();
    const uint64_t gathers_after_first = comm.stats().allgather_calls;

    run_batch(*model, 8, 4, 3, 12);
    kfac.step();  // skip iteration — but lw still gathers preconditioned grads
    EXPECT_GT(comm.stats().allgather_calls, gathers_after_first);
  });
}

class KfacStrategyEquivalence
    : public ::testing::TestWithParam<DistributionStrategy> {};

TEST_P(KfacStrategyEquivalence, MatchesSingleRankResult) {
  // All strategies compute the same math — only placement and
  // communication differ. A 3-rank run must produce the same
  // preconditioned gradients as a 1-rank run on the same global batch.
  const DistributionStrategy strategy = GetParam();

  auto build_and_capture = [](nn::Layer& model, int rank, int world) {
    // Global batch of 12 samples; each rank takes a contiguous quarter.
    Rng rng(107);
    const int64_t global = 12;
    Tensor x = Tensor::randn(Shape{global, 5}, rng);
    std::vector<int64_t> labels(static_cast<size_t>(global));
    for (int64_t i = 0; i < global; ++i) labels[static_cast<size_t>(i)] = i % 3;

    const int64_t local = global / world;
    Tensor x_local(Shape{local, 5});
    std::vector<int64_t> labels_local(static_cast<size_t>(local));
    for (int64_t i = 0; i < local; ++i) {
      const int64_t src = rank * local + i;
      for (int64_t j = 0; j < 5; ++j) x_local.at(i, j) = x.at(src, j);
      labels_local[static_cast<size_t>(i)] = labels[static_cast<size_t>(src)];
    }
    model.zero_grad();
    Tensor logits = model.forward(x_local);
    nn::LossResult loss = nn::softmax_cross_entropy(logits, labels_local);
    model.backward(loss.grad);
  };

  auto gradient_allreduce = [](nn::Layer& model, comm::Communicator& comm) {
    for (nn::Parameter* p : model.parameters()) {
      comm.allreduce(p->grad, comm::ReduceOp::kAverage);
    }
  };

  // Reference: single rank, full batch.
  Rng ref_rng(42);
  nn::LayerPtr ref_model = nn::mlp(5, 6, 3, ref_rng);
  comm::SelfComm self;
  KfacOptions opts = base_options();
  opts.strategy = strategy;
  KfacPreconditioner ref_kfac(*ref_model, self, opts);
  build_and_capture(*ref_model, 0, 1);
  ref_kfac.step();
  std::vector<Tensor> reference;
  for (nn::KfacCapturable* l : ref_model->kfac_layers()) {
    reference.push_back(l->kfac_grad());
  }

  // Distributed: 3 ranks, same global batch.
  comm::LocalGroup group(3);
  group.run([&](int rank, comm::Communicator& comm) {
    Rng rng(42);
    nn::LayerPtr model = nn::mlp(5, 6, 3, rng);
    KfacPreconditioner kfac(*model, comm, opts);
    build_and_capture(*model, rank, 3);
    gradient_allreduce(*model, comm);
    kfac.step();
    auto layers = model->kfac_layers();
    for (size_t i = 0; i < layers.size(); ++i) {
      EXPECT_TRUE(allclose(layers[i]->kfac_grad(), reference[i], 5e-3f, 5e-4f))
          << "layer " << i << " diverged on rank " << rank;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Strategies, KfacStrategyEquivalence,
                         ::testing::Values(DistributionStrategy::kFactorWise,
                                           DistributionStrategy::kLayerWise,
                                           DistributionStrategy::kSizeBalanced));

TEST(Kfac, WorksWithConvNetworks) {
  Rng rng(108);
  nn::LayerPtr model = nn::simple_cnn(2, 4, rng, 4);
  comm::SelfComm comm;
  KfacPreconditioner kfac(*model, comm, base_options());

  Tensor x = Tensor::randn(Shape{4, 2, 8, 8}, rng);
  model->zero_grad();
  Tensor logits = model->forward(x);
  nn::LossResult loss = nn::softmax_cross_entropy(logits, {0, 1, 2, 3});
  model->backward(loss.grad);

  std::vector<Tensor> before;
  for (nn::KfacCapturable* l : model->kfac_layers()) before.push_back(l->kfac_grad());
  kfac.step();
  // Preconditioning must change the gradient (γ is small) but keep it finite.
  auto layers = model->kfac_layers();
  for (size_t i = 0; i < layers.size(); ++i) {
    Tensor after = layers[i]->kfac_grad();
    EXPECT_FALSE(allclose(after, before[i], 1e-3f, 1e-5f)) << "layer " << i;
    for (int64_t j = 0; j < after.numel(); ++j) {
      ASSERT_TRUE(std::isfinite(after[j]));
    }
  }
}

TEST(Kfac, DampingScheduleAffectsNextDecomposition) {
  Rng rng(109);
  nn::Sequential model("m");
  model.emplace<nn::Linear>(4, 3, false, rng, "fc");
  auto* fc = dynamic_cast<nn::Linear*>(model.children()[0]);
  comm::SelfComm comm;
  KfacOptions opts = base_options();
  KfacPreconditioner kfac(model, comm, opts);

  run_batch(model, 8, 4, 3, 20);
  Tensor grad = fc->kfac_grad();
  kfac.step();
  Tensor p_small_damping = fc->kfac_grad();

  // Restore the gradient, raise damping, step again on the same captures.
  fc->set_kfac_grad(grad);
  kfac.set_damping(10.0f);
  run_batch(model, 8, 4, 3, 20);
  fc->set_kfac_grad(grad);
  kfac.step();
  Tensor p_large_damping = fc->kfac_grad();
  EXPECT_LT(p_large_damping.norm(), p_small_damping.norm());
}

TEST(Kfac, SetLrValidation) {
  Rng rng(110);
  nn::LayerPtr model = nn::mlp(3, 4, 2, rng);
  comm::SelfComm comm;
  KfacPreconditioner kfac(*model, comm, base_options());
  EXPECT_THROW(kfac.set_lr(0.0f), Error);
  EXPECT_THROW(kfac.set_damping(-1.0f), Error);
  EXPECT_NO_THROW(kfac.set_update_freqs(2, 10));
  EXPECT_THROW(kfac.set_update_freqs(3, 10), Error);
}

TEST(Kfac, FullRankFractionMatchesDefaultPath) {
  // eigen_rank_fraction = 1.0 must be bit-identical to the default.
  Rng rng(120);
  nn::LayerPtr model_a = nn::mlp(5, 6, 3, rng);
  Rng rng2(120);
  nn::LayerPtr model_b = nn::mlp(5, 6, 3, rng2);
  comm::SelfComm comm;
  KfacOptions opts = base_options();
  KfacPreconditioner kfac_a(*model_a, comm, opts);
  opts.eigen_rank_fraction = 1.0f;
  KfacPreconditioner kfac_b(*model_b, comm, opts);

  run_batch(*model_a, 8, 5, 3, 30);
  run_batch(*model_b, 8, 5, 3, 30);
  kfac_a.step();
  kfac_b.step();
  auto la = model_a->kfac_layers();
  auto lb = model_b->kfac_layers();
  for (size_t i = 0; i < la.size(); ++i) {
    EXPECT_TRUE(la[i]->kfac_grad() == lb[i]->kfac_grad()) << "layer " << i;
  }
}

TEST(Kfac, TruncatedRankApproximatesFullPreconditioner) {
  // With most of the spectrum kept, the truncated preconditioned gradient
  // stays close to the exact one; the error grows as rank drops.
  Rng rng(121);
  auto make_model = [] {
    Rng r(121);
    return nn::mlp(8, 10, 4, r);
  };
  comm::SelfComm comm;

  auto precond_with = [&](float fraction) {
    nn::LayerPtr model = make_model();
    KfacOptions opts = base_options();
    opts.eigen_rank_fraction = fraction;
    KfacPreconditioner kfac(*model, comm, opts);
    run_batch(*model, 16, 8, 4, 31);
    kfac.step();
    std::vector<Tensor> grads;
    for (nn::KfacCapturable* l : model->kfac_layers()) {
      grads.push_back(l->kfac_grad());
    }
    return grads;
  };

  const auto exact = precond_with(1.0f);
  const auto high = precond_with(0.8f);
  const auto low = precond_with(0.3f);
  double err_high = 0.0, err_low = 0.0, norm = 0.0;
  for (size_t i = 0; i < exact.size(); ++i) {
    err_high += linalg::frobenius_distance(high[i], exact[i]);
    err_low += linalg::frobenius_distance(low[i], exact[i]);
    norm += exact[i].norm();
  }
  EXPECT_LT(err_high, err_low);
  EXPECT_LT(err_high, 0.6 * norm);  // 80% of the spectrum captures the bulk
}

TEST(Kfac, TruncatedRankReducesGatherBytes) {
  comm::LocalGroup group(2);
  std::vector<uint64_t> bytes(2);
  for (int variant = 0; variant < 2; ++variant) {
    group.run([&](int rank, comm::Communicator& comm) {
      Rng rng(122);
      nn::LayerPtr model = nn::mlp(8, 12, 4, rng);
      KfacOptions opts = base_options();
      opts.eigen_rank_fraction = variant == 0 ? 1.0f : 0.25f;
      comm.reset_stats();
      KfacPreconditioner kfac(*model, comm, opts);
      run_batch(*model, 8, 8, 4, 32);
      kfac.step();
      if (rank == 0) bytes[static_cast<size_t>(variant)] = comm.stats().allgather_bytes;
    });
  }
  EXPECT_LT(bytes[1], bytes[0] / 2);
}

TEST(Kfac, TruncatedRankTrainsDistributed) {
  comm::LocalGroup group(2);
  group.run([&](int, comm::Communicator& comm) {
    Rng rng(123);
    nn::LayerPtr model = nn::mlp(6, 8, 3, rng);
    KfacOptions opts = base_options();
    opts.eigen_rank_fraction = 0.5f;
    KfacPreconditioner kfac(*model, comm, opts);
    for (int it = 0; it < 3; ++it) {
      run_batch(*model, 8, 6, 3, 40 + static_cast<uint64_t>(it));
      for (nn::Parameter* p : model->parameters()) {
        comm.allreduce(p->grad, comm::ReduceOp::kAverage);
      }
      kfac.step();
      for (nn::KfacCapturable* l : model->kfac_layers()) {
        Tensor g = l->kfac_grad();
        for (int64_t i = 0; i < g.numel(); ++i) ASSERT_TRUE(std::isfinite(g[i]));
      }
    }
  });
}

TEST(Kfac, InvalidOptionsRejectedAtConstruction) {
  // The constructor validates before building anything from the options,
  // so a bad option set surfaces as the options error itself.
  Rng rng(180);
  nn::LayerPtr model = nn::mlp(3, 4, 2, rng);
  comm::SelfComm comm;
  KfacOptions bad = base_options();
  bad.damping = 0.0f;
  EXPECT_THROW(KfacPreconditioner(*model, comm, bad), Error);
  EXPECT_NO_THROW(KfacPreconditioner(*model, comm, base_options()));
}

TEST(Kfac, InvalidRankFractionThrows) {
  KfacOptions opts;
  opts.eigen_rank_fraction = 0.0f;
  EXPECT_THROW(opts.validate(), Error);
  opts.eigen_rank_fraction = 1.5f;
  EXPECT_THROW(opts.validate(), Error);
}

TEST(Kfac, StepReportSurfacesFactorCommBytes) {
  Rng rng(160);
  nn::LayerPtr model = nn::mlp(5, 6, 3, rng);
  comm::SelfComm comm;
  KfacOptions opts = base_options();
  opts.factor_update_freq = 2;
  opts.inv_update_freq = 2;
  KfacPreconditioner kfac(*model, comm, opts);

  uint64_t expected_dense = 0;
  uint64_t expected_packed = 0;
  for (int64_t d : kfac.factor_dims()) {
    expected_dense += static_cast<uint64_t>(d * d) * sizeof(float);
    expected_packed += static_cast<uint64_t>(d * (d + 1) / 2) * sizeof(float);
  }

  run_batch(*model, 8, 5, 3, 161);
  kfac.step();  // iteration 0: factor update
  EXPECT_EQ(kfac.last_report().factor_comm_bytes, expected_packed);
  EXPECT_GE(comm.stats().allreduce_calls, 1u);
  EXPECT_EQ(comm.stats().factor_dense_bytes, expected_dense);
  EXPECT_EQ(comm.stats().factor_packed_bytes, expected_packed);

  const uint64_t allreduces = comm.stats().allreduce_calls;
  run_batch(*model, 8, 5, 3, 162);
  kfac.step();  // iteration 1: skip — no factor communication at all
  EXPECT_EQ(kfac.last_report().factor_comm_bytes, 0u);
  EXPECT_EQ(comm.stats().allreduce_calls, allreduces);
  EXPECT_EQ(comm.stats().factor_dense_bytes, expected_dense);
  EXPECT_EQ(comm.stats().factor_packed_bytes, expected_packed);
}

TEST(Kfac, SetterValidationRoutesThroughOptionsValidate) {
  Rng rng(170);
  nn::LayerPtr model = nn::mlp(3, 4, 2, rng);
  comm::SelfComm comm;
  KfacPreconditioner kfac(*model, comm, base_options());
  // A rejected retune must leave the live options untouched.
  EXPECT_THROW(kfac.set_damping(0.0f), Error);
  EXPECT_FLOAT_EQ(kfac.options().damping, base_options().damping);
  EXPECT_THROW(kfac.set_lr(-0.5f), Error);
  EXPECT_FLOAT_EQ(kfac.options().lr, base_options().lr);
  EXPECT_THROW(kfac.set_update_freqs(0, 1), Error);
  EXPECT_EQ(kfac.options().factor_update_freq, 1);
  EXPECT_NO_THROW(kfac.set_damping(0.5f));
  EXPECT_FLOAT_EQ(kfac.options().damping, 0.5f);
}

TEST(Kfac, LayerWiseAndFactorWiseProduceIdenticalGradients) {
  // Layer-wise and factor-wise place the same math on different ranks:
  // with identical batches and a fixed seed the preconditioned gradients
  // must match bitwise, not just to tolerance (deterministic collectives,
  // same GEMM code on whatever rank runs it).
  auto run_with = [](DistributionStrategy strategy) {
    std::vector<Tensor> grads;
    std::mutex mu;
    comm::LocalGroup group(2);
    group.run([&](int rank, comm::Communicator& comm) {
      Rng rng(200);
      nn::LayerPtr model = nn::mlp(6, 8, 3, rng);
      KfacOptions opts = base_options();
      opts.strategy = strategy;
      KfacPreconditioner kfac(*model, comm, opts);
      for (int it = 0; it < 3; ++it) {
        run_batch(*model, 8, 6, 3, 201 + static_cast<uint64_t>(it) +
                                       static_cast<uint64_t>(rank));
        for (nn::Parameter* p : model->parameters()) {
          comm.allreduce(p->grad, comm::ReduceOp::kAverage);
        }
        kfac.step();
      }
      if (rank == 0) {
        std::lock_guard<std::mutex> lock(mu);
        for (nn::KfacCapturable* l : model->kfac_layers()) {
          grads.push_back(l->kfac_grad());
        }
      }
    });
    return grads;
  };

  const std::vector<Tensor> layer_wise = run_with(DistributionStrategy::kLayerWise);
  const std::vector<Tensor> factor_wise = run_with(DistributionStrategy::kFactorWise);
  ASSERT_EQ(layer_wise.size(), factor_wise.size());
  for (size_t i = 0; i < layer_wise.size(); ++i) {
    EXPECT_TRUE(layer_wise[i] == factor_wise[i]) << "layer " << i;
  }
}

TEST(Kfac, ExplicitInverseExchangeIsSymmetryPacked) {
  // (X+γI)⁻¹ is symmetric, so the decomposition allgather ships only the
  // upper triangle of each inverse this rank owns: n(n+1)/2 fp32 elements.
  comm::LocalGroup group(2);
  group.run([&](int rank, comm::Communicator& comm) {
    Rng rng(210);
    nn::LayerPtr model = nn::mlp(8, 12, 4, rng);
    KfacOptions opts = base_options();
    opts.inverse_method = InverseMethod::kExplicitInverse;
    KfacPreconditioner kfac(*model, comm, opts);
    run_batch(*model, 8, 8, 4, 211);
    for (nn::Parameter* p : model->parameters()) {
      comm.allreduce(p->grad, comm::ReduceOp::kAverage);
    }
    comm.reset_stats();
    kfac.step();

    uint64_t packed = 0;
    uint64_t dense = 0;
    for (int64_t f : kfac.assignment().owned_by(rank)) {
      const auto n = static_cast<uint64_t>(
          kfac.factor_dims()[static_cast<size_t>(f)]);
      packed += sizeof(float) * n * (n + 1) / 2;
      dense += sizeof(float) * n * n;
    }
    EXPECT_GT(packed, 0u);
    EXPECT_EQ(comm.stats().decomp_packed_bytes, packed);
    EXPECT_EQ(comm.stats().decomp_dense_bytes, dense);
    // The decomposition exchange is the step's only allgather.
    EXPECT_EQ(comm.stats().allgather_bytes, packed);
  });
}

TEST(Kfac, DecompositionExchangeLeavesRanksBitwiseIdentical) {
  // Every rank must precondition with the same decompositions. At fp32 an
  // owner keeps the exact matrices it sent; at 16 bits it must adopt the
  // decoded bytes its peers see, not its unquantised original.
  for (const InverseMethod method : {InverseMethod::kEigenDecomposition,
                                     InverseMethod::kExplicitInverse}) {
    for (const comm::Precision precision :
         {comm::Precision::kFp32, comm::Precision::kBf16}) {
      std::vector<std::vector<Tensor>> grads(2);
      comm::LocalGroup group(2);
      group.run([&](int rank, comm::Communicator& comm) {
        Rng rng(240);
        nn::LayerPtr model = nn::mlp(6, 8, 3, rng);
        KfacOptions opts = base_options();
        opts.inverse_method = method;
        opts.factor_precision = precision;
        KfacPreconditioner kfac(*model, comm, opts);
        run_batch(*model, 8, 6, 3, 241 + static_cast<uint64_t>(rank));
        for (nn::Parameter* p : model->parameters()) {
          comm.allreduce(p->grad, comm::ReduceOp::kAverage);
        }
        kfac.step();
        for (nn::KfacCapturable* l : model->kfac_layers()) {
          grads[static_cast<size_t>(rank)].push_back(l->kfac_grad());
        }
      });
      ASSERT_EQ(grads[0].size(), grads[1].size());
      for (size_t i = 0; i < grads[0].size(); ++i) {
        EXPECT_TRUE(grads[0][i] == grads[1][i])
            << "layer " << i << ", method " << static_cast<int>(method)
            << ", precision " << comm::precision_name(precision);
      }
    }
  }
}

TEST(Kfac, EigenPathRecordsDenseDecompVolume) {
  // Eigenvector matrices are not symmetric — no packing, dense == shipped.
  comm::LocalGroup group(2);
  group.run([&](int rank, comm::Communicator& comm) {
    Rng rng(220);
    nn::LayerPtr model = nn::mlp(5, 6, 3, rng);
    KfacPreconditioner kfac(*model, comm, base_options());
    run_batch(*model, 8, 5, 3, 221);
    kfac.step();
    if (rank == 0) {
      EXPECT_GT(comm.stats().decomp_dense_bytes, 0u);
      EXPECT_EQ(comm.stats().decomp_packed_bytes,
                comm.stats().decomp_dense_bytes);
    }
  });
}

TEST(Kfac, AsyncFactorExchangeMatchesSynchronous) {
  // With an AsyncExecutor attached and overlap_comm on, factor allreduces
  // ride the background pipeline and fold in lazily — the preconditioned
  // gradients must still match the synchronous path bitwise.
  auto run_with = [](bool overlap) {
    std::vector<Tensor> grads;
    std::mutex mu;
    comm::LocalGroup group(2);
    group.run([&](int rank, comm::Communicator& comm) {
      Rng rng(230);
      nn::LayerPtr model = nn::mlp(6, 8, 3, rng);
      KfacOptions opts = base_options();
      opts.factor_update_freq = 1;
      opts.inv_update_freq = 2;
      opts.overlap_comm = overlap;
      KfacPreconditioner kfac(*model, comm, opts);
      std::optional<comm::AsyncExecutor> executor;
      if (overlap) {
        executor.emplace(comm);
        kfac.set_async_executor(&*executor);
      }
      for (int it = 0; it < 4; ++it) {
        run_batch(*model, 8, 6, 3, 231 + static_cast<uint64_t>(it) +
                                       static_cast<uint64_t>(rank));
        // Protocol: drain the pipeline before direct collectives.
        if (executor) executor->wait();
        for (nn::Parameter* p : model->parameters()) {
          comm.allreduce(p->grad, comm::ReduceOp::kAverage);
        }
        const uint64_t submitted = executor ? executor->stats().submitted : 0;
        kfac.step();
        if (overlap) {
          // Every factor's exchange went to the executor.
          EXPECT_EQ(executor->stats().submitted - submitted,
                    kfac.factor_dims().size());
        }
      }
      if (executor) executor->wait();
      if (rank == 0) {
        std::lock_guard<std::mutex> lock(mu);
        for (nn::KfacCapturable* l : model->kfac_layers()) {
          grads.push_back(l->kfac_grad());
        }
      }
      // Detach before the executor leaves scope.
      kfac.set_async_executor(nullptr);
    });
    return grads;
  };

  const std::vector<Tensor> sync_grads = run_with(false);
  const std::vector<Tensor> async_grads = run_with(true);
  ASSERT_EQ(sync_grads.size(), async_grads.size());
  for (size_t i = 0; i < sync_grads.size(); ++i) {
    EXPECT_TRUE(sync_grads[i] == async_grads[i]) << "layer " << i;
  }
}

TEST(Kfac, IterationCounterAdvances) {
  Rng rng(111);
  nn::LayerPtr model = nn::mlp(3, 4, 2, rng);
  comm::SelfComm comm;
  KfacPreconditioner kfac(*model, comm, base_options());
  EXPECT_EQ(kfac.iteration(), 0);
  run_batch(*model, 4, 3, 2, 21);
  kfac.step();
  EXPECT_EQ(kfac.iteration(), 1);
}

}  // namespace
}  // namespace dkfac::kfac

// Quickstart: drop the K-FAC preconditioner into a standard training loop.
//
// This is the C++ equivalent of the paper's Listing 1: the only changes
// versus plain SGD training are constructing the KfacPreconditioner and
// calling step() between the gradient allreduce and the optimizer step.
//
//   optimizer = SGD(...)                 -> dkfac::optim::Sgd
//   preconditioner = KFAC(model, ...)    -> dkfac::kfac::KfacPreconditioner
//   ...
//   loss.backward()                      -> model->backward(loss.grad)
//   optimizer.synchronize()              -> comm.allreduce(gradients)
//   preconditioner.step()                -> kfac.step()
//   optimizer.step()                     -> sgd.step()
#include <cstdio>

#include "comm/communicator.hpp"
#include "core/preconditioner.hpp"
#include "data/loader.hpp"
#include "nn/loss.hpp"
#include "nn/resnet.hpp"
#include "optim/sgd.hpp"
#include "train/trainer.hpp"

int main() {
  using namespace dkfac;

  // Synthetic CIFAR-like data (3×16×16, 10 classes) — see data/synthetic.hpp.
  data::SyntheticSpec spec;
  spec.height = spec.width = 16;
  spec.grid = 4;
  spec.train_size = 1280;
  spec.val_size = 256;
  data::SyntheticImageDataset train_set(spec, data::SyntheticImageDataset::Split::kTrain);
  data::SyntheticImageDataset val_set(spec, data::SyntheticImageDataset::Split::kVal);

  // Model, data loader, communicator (single process here — swap in a
  // LocalGroup rank for distributed training; see examples/cifar_resnet.cpp).
  Rng rng(42);
  nn::LayerPtr model = nn::resnet_cifar(/*depth=*/8, spec.num_classes, rng,
                                        /*base_width=*/8);
  data::ShardedLoader loader(train_set, /*local_batch=*/64, /*rank=*/0,
                             /*world_size=*/1);
  comm::SelfComm comm;

  // Optimizer + K-FAC preconditioner (Listing 1, lines 3-5).
  optim::Sgd sgd(model->parameters(), {.lr = 0.05f, .momentum = 0.9f});
  kfac::KfacOptions options;
  options.lr = 0.05f;
  options.damping = 0.003f;
  options.with_update_freq(10);  // eigendecompositions every 10 iterations
  kfac::KfacPreconditioner kfac(*model, comm, options);

  std::printf("training ResNet-8 with K-FAC-preconditioned SGD\n");
  std::printf("%zu K-FAC-eligible layers, %lld parameters\n\n",
              kfac.layer_count(),
              static_cast<long long>(model->parameter_count()));

  for (int epoch = 0; epoch < 4; ++epoch) {
    float loss_sum = 0.0f;
    for (int64_t b = 0; b < loader.batches_per_epoch(); ++b) {
      data::Batch batch = loader.batch(epoch, b);

      model->zero_grad();
      Tensor logits = model->forward(batch.images);
      nn::LossResult loss = nn::softmax_cross_entropy(logits, batch.labels);
      model->backward(loss.grad);  // loss.backward()

      // optimizer.synchronize(): average gradients across ranks (no-op at
      // world size 1, shown for fidelity with the distributed loop).
      for (nn::Parameter* p : model->parameters()) {
        comm.allreduce(p->grad, comm::ReduceOp::kAverage);
      }
      kfac.step();  // preconditioner.step()
      sgd.step();   // optimizer.step()
      loss_sum += loss.loss;
    }

    // Validation accuracy: the trainer's evaluation, sharded across ranks.
    const float val_acc =
        train::evaluate(*model, val_set, comm, /*eval_batch=*/128);
    std::printf("epoch %d: train loss %.3f, val accuracy %.1f%%\n", epoch + 1,
                loss_sum / static_cast<float>(loader.batches_per_epoch()),
                100.0 * static_cast<double>(val_acc));
  }
  return 0;
}

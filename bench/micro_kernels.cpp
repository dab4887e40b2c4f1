// Microbenchmarks (google-benchmark) for the kernels on K-FAC's critical
// path: GEMM, symmetric eigensolve, Cholesky inverse, im2col, factor
// computation, preconditioning, and thread-group allreduce.
#include <benchmark/benchmark.h>

#include "comm/thread_comm.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen.hpp"
#include "nn/conv2d.hpp"
#include "tensor/random.hpp"

namespace {

using namespace dkfac;

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    linalg::gemm(1.0f, a, linalg::Trans::kNo, b, linalg::Trans::kNo, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmTransposed(benchmark::State& state) {
  // AᵀA — the factor-computation shape.
  const int64_t rows = 4096;
  const int64_t dim = state.range(0);
  Rng rng(2);
  Tensor a = Tensor::randn(Shape{rows, dim}, rng);
  Tensor c(Shape{dim, dim});
  for (auto _ : state) {
    linalg::gemm(1.0f / rows, a, linalg::Trans::kYes, a, linalg::Trans::kNo,
                 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows * dim * dim);
}
BENCHMARK(BM_GemmTransposed)->Arg(27)->Arg(144)->Arg(288);

void BM_Syrk(benchmark::State& state) {
  // The dedicated factor-statistics kernel, upper triangle only: AᵀA on a
  // [k, d] matrix (Linear's orientation) when AtA is 1, AAᵀ on a [d, k]
  // matrix (Conv2d's channel-major patch matrix) when it is 0. Items
  // processed counts the full 2·k·d² so GFLOP/s is comparable with
  // BM_GemmTransposed — the ~2× "effective" rate is the symmetry win.
  const int64_t dim = state.range(0);
  const int64_t depth = state.range(1);
  const bool ata = state.range(2) != 0;
  Rng rng(2);
  Tensor a = ata ? Tensor::randn(Shape{depth, dim}, rng)
                 : Tensor::randn(Shape{dim, depth}, rng);
  Tensor c(Shape{dim, dim});
  const linalg::Trans trans = ata ? linalg::Trans::kYes : linalg::Trans::kNo;
  for (auto _ : state) {
    linalg::syrk(1.0f / depth, a, trans, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * depth * dim * dim);
}
BENCHMARK(BM_Syrk)
    ->ArgNames({"d", "k", "AtA"})
    ->Args({27, 4096, 1})
    ->Args({144, 4096, 1})
    ->Args({288, 4096, 1})
    ->Args({72, 8192, 0});

void BM_Gemv(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(7);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor x = Tensor::randn(Shape{n}, rng);
  Tensor y(Shape{n});
  for (auto _ : state) {
    linalg::gemv(1.0f, a, linalg::Trans::kNo, x, 0.0f, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n);
}
BENCHMARK(BM_Gemv)->Arg(256)->Arg(1024);

void BM_Transpose(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(8);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  for (auto _ : state) {
    Tensor t = linalg::transpose(a);
    benchmark::DoNotOptimize(t.data());
  }
  state.SetBytesProcessed(state.iterations() * n * n * sizeof(float) * 2);
}
BENCHMARK(BM_Transpose)->Arg(256)->Arg(1024);

void BM_Cholesky(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(9);
  Tensor m = Tensor::randn(Shape{n, n}, rng);
  Tensor a(Shape{n, n});
  linalg::syrk(1.0f, m, linalg::Trans::kYes, 0.0f, a);
  linalg::add_diagonal(a, 0.1f);
  for (auto _ : state) {
    Tensor l = linalg::cholesky(a);
    benchmark::DoNotOptimize(l.data());
  }
}
BENCHMARK(BM_Cholesky)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_SymEig(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  Tensor m = Tensor::randn(Shape{n, n}, rng);
  Tensor a = linalg::matmul(m, m, linalg::Trans::kYes, linalg::Trans::kNo);
  for (auto _ : state) {
    auto eig = linalg::sym_eig(a);
    benchmark::DoNotOptimize(eig.values.data());
  }
}
BENCHMARK(BM_SymEig)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_SpdInverse(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(4);
  Tensor m = Tensor::randn(Shape{n, n}, rng);
  Tensor a = linalg::matmul(m, m, linalg::Trans::kYes, linalg::Trans::kNo);
  linalg::add_diagonal(a, 0.1f);
  for (auto _ : state) {
    Tensor inv = linalg::spd_inverse(a);
    benchmark::DoNotOptimize(inv.data());
  }
}
BENCHMARK(BM_SpdInverse)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_Im2col(benchmark::State& state) {
  const int64_t res = state.range(0);
  Rng rng(5);
  Tensor x = Tensor::randn(Shape{8, 16, res, res}, rng);
  for (auto _ : state) {
    Tensor cols = nn::im2col(x, 3, 1, 1);
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col)->Arg(8)->Arg(16)->Arg(32);

void BM_ConvForward(benchmark::State& state) {
  const int64_t channels = state.range(0);
  Rng rng(6);
  nn::Conv2d conv({.in_channels = channels, .out_channels = channels,
                   .kernel = 3, .stride = 1, .padding = 1, .bias = false},
                  rng);
  Tensor x = Tensor::randn(Shape{8, channels, 16, 16}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ConvForward)->Arg(8)->Arg(16)->Arg(32);

void BM_ThreadAllreduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const size_t elements = 1 << 18;  // 1 MiB of FP32
  for (auto _ : state) {
    comm::LocalGroup group(ranks);
    group.run([&](int, comm::Communicator& comm) {
      std::vector<float> data(elements, 1.0f);
      comm.allreduce(data, comm::ReduceOp::kAverage);
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.SetBytesProcessed(state.iterations() * elements * sizeof(float) * ranks);
}
BENCHMARK(BM_ThreadAllreduce)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

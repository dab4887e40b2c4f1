// Ablation: legacy scalar linalg kernels vs the packed micro-kernel rewrite.
//
// PR 5 replaced the row-panel scalar GEMM with a Goto-style packed,
// register-blocked micro-kernel (AVX2/FMA when DKFAC_NATIVE_ARCH is on),
// added a dedicated SYRK for the AᵀA/GᵀG factor statistics, and blocked /
// parallelized the Cholesky and eigensolve. This bench keeps a verbatim
// copy of the seed kernels ("legacy") and times both on the shapes the
// paper puts on the critical path (Table 1 / Fig 10):
//   - square GEMMs, the im2col forward/backward shape;
//   - AᵀA on 4096×d, the Linear-style factor orientation (kept from the
//     first snapshot so the trajectory stays comparable);
//   - AAᵀ on d×N·OH·OW, the factors Conv2d computes from its channel-major
//     patch matrix: 72×8192, 144×2048 and 288×512 are the 3×3-conv A
//     factors of the ResNet-8 (width 8, batch 32, 16×16 images) that the
//     K-FAC perfbench workloads train;
//   - gemv, transpose and the decompositions.
// syrk runs its own one-pack Gram kernel (linalg/gram.hpp), whose
// micro-kernel is picked from the CPU at run time. Each syrk row is timed
// once per Gram micro-kernel this build and CPU support, through
// detail::syrk_with, and records the kernel it ran; the legacy column of a
// syrk row is the seed's full gemm (it had no syrk).
// The conv rows time the six products Conv2d runs for the stage-1 and
// stage-3 3×3 convs of that ResNet-8 (M×K×N: forward W·patches, weight
// gradient grad·patchesᵀ, input gradient Wᵀ·grad), once per fp32 gemm
// kernel this build and CPU support, through detail::gemm_with. Their
// baseline is not the seed but the AVX2 kernel in this binary, timed in
// alternation with the kernel under test. Results land in
// BENCH_kernels.json so the kernel-perf trajectory is a recorded artifact;
// each row names its baseline ("seed" or "avx2") and, where one ran, the
// micro-kernel ("isa").
//
// This file is compiled WITHOUT the native-arch flags (bench/ uses the
// default arch), so "legacy" is measured exactly as the seed built it.
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "legacy_decomp.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen.hpp"
#include "linalg/gram.hpp"
#include "tensor/random.hpp"

namespace {

using namespace dkfac;
using linalg::Trans;

// ---- verbatim seed kernels (PR 0 state of src/linalg/blas.cpp) ------------

void legacy_gemm(float alpha, const Tensor& a, Trans trans_a, const Tensor& b,
                 Trans trans_b, float beta, Tensor& c) {
  const int64_t m = trans_a == Trans::kNo ? a.dim(0) : a.dim(1);
  const int64_t k = trans_a == Trans::kNo ? a.dim(1) : a.dim(0);
  const int64_t n = trans_b == Trans::kNo ? b.dim(1) : b.dim(0);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  const int64_t lda = a.dim(1);
  const int64_t ldb = b.dim(1);
  if (beta != 1.0f) {
    if (beta == 0.0f) {
      c.zero_();
    } else {
      c.scale_(beta);
    }
  }
  constexpr int64_t kBlock = 64;
#pragma omp parallel for schedule(static)
  for (int64_t i0 = 0; i0 < m; i0 += kBlock) {
    const int64_t i1 = std::min(i0 + kBlock, m);
    for (int64_t k0 = 0; k0 < k; k0 += kBlock) {
      const int64_t k1 = std::min(k0 + kBlock, k);
      for (int64_t i = i0; i < i1; ++i) {
        float* crow = pc + i * n;
        for (int64_t kk = k0; kk < k1; ++kk) {
          const float aval =
              alpha * (trans_a == Trans::kNo ? pa[i * lda + kk] : pa[kk * lda + i]);
          if (aval == 0.0f) continue;
          if (trans_b == Trans::kNo) {
            const float* brow = pb + kk * ldb;
            for (int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
          } else {
            const float* bcol = pb + kk;
            for (int64_t j = 0; j < n; ++j) crow[j] += aval * bcol[j * ldb];
          }
        }
      }
    }
  }
}

void legacy_gemv(float alpha, const Tensor& a, Trans trans_a, const Tensor& x,
                 float beta, Tensor& y) {
  const int64_t m = trans_a == Trans::kNo ? a.dim(0) : a.dim(1);
  const int64_t k = trans_a == Trans::kNo ? a.dim(1) : a.dim(0);
  const int64_t lda = a.dim(1);
  for (int64_t i = 0; i < m; ++i) {
    double acc = 0.0;
    for (int64_t j = 0; j < k; ++j) {
      const float aij =
          trans_a == Trans::kNo ? a.data()[i * lda + j] : a.data()[j * lda + i];
      acc += static_cast<double>(aij) * x[j];
    }
    y[i] = alpha * static_cast<float>(acc) + beta * y[i];
  }
}

Tensor legacy_transpose(const Tensor& a) {
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  Tensor out(Shape{n, m});
  constexpr int64_t kBlock = 32;
  for (int64_t i0 = 0; i0 < m; i0 += kBlock) {
    for (int64_t j0 = 0; j0 < n; j0 += kBlock) {
      const int64_t i1 = std::min(i0 + kBlock, m);
      const int64_t j1 = std::min(j0 + kBlock, n);
      for (int64_t i = i0; i < i1; ++i) {
        for (int64_t j = j0; j < j1; ++j) {
          out.data()[j * m + i] = a.data()[i * n + j];
        }
      }
    }
  }
  return out;
}

// ---- measurement ----------------------------------------------------------

/// Median-of-repeats wall time for `fn`, after one untimed warm-up.
template <typename Fn>
double time_ms(Fn&& fn, int repeats) {
  fn();
  std::vector<double> times;
  times.reserve(static_cast<size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    fn();
    times.push_back(seconds_since(start) * 1e3);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Interleaved medians for two functions: one untimed warm-up each, then
/// `repeats` rounds that time `base` and `test` back to back, so drift in
/// the machine's speed lands on both.
template <typename Base, typename Test>
std::pair<double, double> time_pair_ms(Base&& base, Test&& test, int repeats) {
  base();
  test();
  std::vector<double> base_ms;
  std::vector<double> test_ms;
  for (int r = 0; r < repeats; ++r) {
    auto start = Clock::now();
    base();
    base_ms.push_back(seconds_since(start) * 1e3);
    start = Clock::now();
    test();
    test_ms.push_back(seconds_since(start) * 1e3);
  }
  std::sort(base_ms.begin(), base_ms.end());
  std::sort(test_ms.begin(), test_ms.end());
  return {base_ms[base_ms.size() / 2], test_ms[test_ms.size() / 2]};
}

struct Row {
  std::string kernel;
  double legacy_ms = 0.0;
  double new_ms = 0.0;
  double flops = 0.0;  // 0 → report ms only
  const char* isa = nullptr;  // the micro-kernel that ran, where one is picked
  const char* baseline = "seed";  // what legacy_ms timed: seed code or avx2
};

/// One syrk row per Gram micro-kernel the CPU supports; `legacy_ms` is the
/// seed's full gemm of the same product.
void add_syrk_rows(std::vector<Row>& rows, const std::string& name,
                   const Tensor& a, Trans trans, double legacy_ms, int reps) {
  namespace gram = linalg::detail;
  const int64_t n = trans == Trans::kYes ? a.dim(1) : a.dim(0);
  const int64_t k = trans == Trans::kYes ? a.dim(0) : a.dim(1);
  Tensor c(Shape{n, n});
  for (gram::GramKernel kernel : gram::kGramKernels) {
    if (!gram::gram_kernel_available(kernel)) continue;
    Row row{name, legacy_ms, 0.0, 2.0 * static_cast<double>(k) * n * n,
            gram::gram_kernel_name(kernel), "seed"};
    row.new_ms = time_ms(
        [&] {
          gram::syrk_with(kernel, 1.0f / static_cast<float>(k), a, trans, 0.0f, c);
        },
        reps);
    rows.push_back(row);
  }
}

/// One conv-product row per fp32 gemm kernel the CPU supports, each timed
/// against the AVX2 kernel (the AVX2 row times it against itself).
void add_conv_rows(std::vector<Row>& rows, const std::string& name, int64_t m,
                   int64_t k, int64_t n, Trans ta, Trans tb, int reps) {
  namespace gk = linalg::detail;
  Rng rng(6);
  const Tensor a = ta == Trans::kNo ? Tensor::randn(Shape{m, k}, rng)
                                    : Tensor::randn(Shape{k, m}, rng);
  const Tensor b = tb == Trans::kNo ? Tensor::randn(Shape{k, n}, rng)
                                    : Tensor::randn(Shape{n, k}, rng);
  Tensor c(Shape{m, n});
  const auto run = [&](gk::GramKernel kernel) {
    return [&, kernel] { gk::gemm_with(kernel, 1.0f, a, ta, b, tb, 0.0f, c); };
  };
  for (gk::GramKernel kernel : gk::kGramKernels) {
    if (!gk::gram_kernel_available(kernel) ||
        !gk::gram_kernel_available(gk::GramKernel::kAvx2)) {
      continue;
    }
    const auto [avx2_ms, kernel_ms] =
        time_pair_ms(run(gk::GramKernel::kAvx2), run(kernel), reps);
    rows.push_back(Row{name, avx2_ms, kernel_ms,
                       2.0 * static_cast<double>(m) * k * n,
                       gk::gram_kernel_name(kernel), "avx2"});
  }
}

double gflops(double flops, double ms) {
  return ms > 0.0 ? flops / (ms * 1e6) : 0.0;
}

}  // namespace

int main() {
  // Pin to one thread: the recorded trajectory is a single-thread GFLOP/s
  // comparison, stable across CI runners with different core counts.
  omp_set_num_threads(1);
  std::printf("\n================================================================\n");
  std::printf("Ablation — legacy scalar kernels vs packed micro-kernel linalg\n");
  std::printf("================================================================\n");
  std::printf("threads pinned to 1 (single-thread kernel comparison)\n");

  std::vector<Row> rows;
  const int reps = 5;
  const char* gemm_isa =
      linalg::detail::gram_kernel_name(linalg::detail::gram_kernel_selected());

  // Square GEMM (the im2col forward/backward shape). 512 is the acceptance
  // shape; 128/256 show the trend.
  for (int64_t n : {128, 256, 512}) {
    Rng rng(1);
    Tensor a = Tensor::randn(Shape{n, n}, rng);
    Tensor b = Tensor::randn(Shape{n, n}, rng);
    Tensor c(Shape{n, n});
    Row row{"gemm_nn_" + std::to_string(n), 0, 0,
            2.0 * static_cast<double>(n) * n * n, gemm_isa};
    row.legacy_ms = time_ms(
        [&] { legacy_gemm(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, c); }, reps);
    row.new_ms = time_ms(
        [&] { linalg::gemm(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, c); }, reps);
    rows.push_back(row);
  }

  // The factor-statistics shape: AᵀA with A = [4096, d] (rows × patch
  // dim). Legacy pays strided reads on the transposed operand; the packed
  // kernels normalize the transpose away, and syrk halves the flops.
  for (int64_t d : {27, 144, 288}) {
    const int64_t r = 4096;
    Rng rng(2);
    Tensor a = Tensor::randn(Shape{r, d}, rng);
    Tensor c(Shape{d, d});
    const double flops = 2.0 * static_cast<double>(r) * d * d;
    Row gemm_row{"gemm_ata_4096x" + std::to_string(d), 0, 0, flops, gemm_isa};
    gemm_row.legacy_ms = time_ms(
        [&] {
          legacy_gemm(1.0f / r, a, Trans::kYes, a, Trans::kNo, 0.0f, c);
        },
        reps);
    gemm_row.new_ms = time_ms(
        [&] {
          linalg::gemm(1.0f / r, a, Trans::kYes, a, Trans::kNo, 0.0f, c);
        },
        reps);
    rows.push_back(gemm_row);

    add_syrk_rows(rows, "syrk_ata_4096x" + std::to_string(d), a, Trans::kYes,
                  gemm_row.legacy_ms, reps);
  }

  // The shapes Conv2d calls: AAᵀ on the channel-major [d, N·OH·OW] patch
  // matrix of each ResNet-8 stage's 3×3 conv.
  for (auto [d, cols] : {std::pair<int64_t, int64_t>{72, 8192}, {144, 2048},
                         {288, 512}}) {
    Rng rng(5);
    Tensor a = Tensor::randn(Shape{d, cols}, rng);
    Tensor c(Shape{d, d});
    const double legacy_ms = time_ms(
        [&] {
          legacy_gemm(1.0f / cols, a, Trans::kNo, a, Trans::kYes, 0.0f, c);
        },
        reps);
    add_syrk_rows(rows, "syrk_aat_" + std::to_string(d) + "x" + std::to_string(cols),
                  a, Trans::kNo, legacy_ms, reps);
  }

  // The conv lowering's products (M×K×N): stage 1 (8 channels, 16×16
  // images, batch 32) and stage 3 (32 channels, 4×4).
  for (const auto& [m, k, n, ta, tb, what] :
       {std::tuple{int64_t{8}, int64_t{72}, int64_t{8192}, Trans::kNo,
                   Trans::kNo, "fwd"},
        std::tuple{int64_t{8}, int64_t{8192}, int64_t{72}, Trans::kNo,
                   Trans::kYes, "dw"},
        std::tuple{int64_t{72}, int64_t{8}, int64_t{8192}, Trans::kYes,
                   Trans::kNo, "dx"},
        std::tuple{int64_t{32}, int64_t{288}, int64_t{512}, Trans::kNo,
                   Trans::kNo, "fwd"},
        std::tuple{int64_t{32}, int64_t{512}, int64_t{288}, Trans::kNo,
                   Trans::kYes, "dw"},
        std::tuple{int64_t{288}, int64_t{32}, int64_t{512}, Trans::kYes,
                   Trans::kNo, "dx"}}) {
    add_conv_rows(rows,
                  std::string("conv_") + what + "_" + std::to_string(m) + "x" +
                      std::to_string(k) + "x" + std::to_string(n),
                  m, k, n, ta, tb, 15);
  }

  // gemv and transpose (satellite kernels).
  {
    const int64_t n = 1024;
    Rng rng(3);
    Tensor a = Tensor::randn(Shape{n, n}, rng);
    Tensor x = Tensor::randn(Shape{n}, rng);
    Tensor y(Shape{n});
    Row row{"gemv_n_1024", 0, 0, 2.0 * static_cast<double>(n) * n};
    row.legacy_ms =
        time_ms([&] { legacy_gemv(1.0f, a, Trans::kNo, x, 0.0f, y); }, reps);
    row.new_ms =
        time_ms([&] { linalg::gemv(1.0f, a, Trans::kNo, x, 0.0f, y); }, reps);
    rows.push_back(row);

    Row trow{"transpose_1024", 0, 0, 0.0};
    trow.legacy_ms = time_ms([&] { legacy_transpose(a); }, reps);
    trow.new_ms = time_ms([&] { linalg::transpose(a); }, reps);
    rows.push_back(trow);
  }

  // Decompositions (Table 1 critical path): blocked Cholesky + triangular
  // inverse and the blocked-Householder/divide-and-conquer eigensolve,
  // against the seed kernels (EISPACK tred2/tql2, unblocked Cholesky with
  // dense triangular solves) embedded in legacy_decomp.hpp.
  for (int64_t n : {128, 256}) {
    Rng rng(4);
    Tensor m = Tensor::randn(Shape{n, n}, rng);
    Tensor spd(Shape{n, n});
    linalg::syrk(1.0f, m, Trans::kYes, 0.0f, spd);
    linalg::add_diagonal(spd, 0.1f);
    Row inv_row{"spd_inverse_" + std::to_string(n), 0, 0, 0.0};
    inv_row.legacy_ms =
        time_ms([&] { bench_legacy::legacy_spd_inverse(spd); }, 3);
    inv_row.new_ms = time_ms([&] { linalg::spd_inverse(spd); }, 3);
    rows.push_back(inv_row);
    Row eig_row{"sym_eig_" + std::to_string(n), 0, 0, 0.0};
    eig_row.legacy_ms = time_ms([&] { bench_legacy::legacy_sym_eig(spd); }, 3);
    eig_row.new_ms = time_ms([&] { linalg::sym_eig(spd); }, 3);
    rows.push_back(eig_row);
  }

  // ---- report -------------------------------------------------------------
  std::printf("\n%-24s %-9s %-8s %12s %12s %10s %10s %9s\n", "kernel", "isa",
              "baseline", "base ms", "new ms", "base GF", "new GF", "speedup");
  for (const Row& row : rows) {
    const double speedup =
        row.legacy_ms > 0.0 && row.new_ms > 0.0 ? row.legacy_ms / row.new_ms : 0.0;
    std::printf("%-24s %-9s %-8s %12.3f %12.3f %10.2f %10.2f %8.2fx\n",
                row.kernel.c_str(), row.isa ? row.isa : "-", row.baseline,
                row.legacy_ms, row.new_ms, gflops(row.flops, row.legacy_ms),
                gflops(row.flops, row.new_ms), speedup);
  }

  FILE* json = std::fopen("BENCH_kernels.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"ablation_kernels\",\n");
    std::fprintf(json, "  \"threads\": 1,\n");
    std::fprintf(json, "  \"results\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      const double speedup =
          row.legacy_ms > 0.0 && row.new_ms > 0.0 ? row.legacy_ms / row.new_ms
                                                  : 0.0;
      const std::string isa =
          row.isa ? "\"" + std::string(row.isa) + "\"" : "null";
      std::fprintf(json,
                   "    {\"kernel\": \"%s\", \"isa\": %s, "
                   "\"baseline\": \"%s\", "
                   "\"legacy_ms\": %.4f, \"new_ms\": %.4f, "
                   "\"legacy_gflops\": %.3f, \"new_gflops\": %.3f, "
                   "\"speedup\": %.3f}%s\n",
                   row.kernel.c_str(), isa.c_str(), row.baseline, row.legacy_ms,
                   row.new_ms, gflops(row.flops, row.legacy_ms),
                   gflops(row.flops, row.new_ms), speedup,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_kernels.json\n");
  }
  return 0;
}

#include "linalg/blas.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "linalg/gemm_driver.hpp"
#include "linalg/gram.hpp"
#include "linalg/microkernel.hpp"
#include "linalg/pack.hpp"
#include "linalg/threading.hpp"

namespace dkfac::linalg {

namespace {

using detail::OpView;

void check_rank2(const Tensor& t, const char* name) {
  DKFAC_CHECK(t.ndim() == 2) << name << " must be rank-2, got " << t.shape();
}

/// Scale C by beta in place: the one pass over C that reads the old value.
/// beta == 0 overwrites (stale garbage / NaN is never read — BLAS rules).
void apply_beta(float beta, float* c, int64_t count) {
  if (beta == 1.0f) return;
  if (beta == 0.0f) {
    std::memset(c, 0, static_cast<size_t>(count) * sizeof(float));
    return;
  }
  const bool par = parallel_kernels_allowed() && count >= (1 << 16);
#pragma omp parallel for schedule(static) if (par)
  for (int64_t i = 0; i < count; ++i) c[i] *= beta;
}

}  // namespace

void gemm(float alpha, const Tensor& a, Trans trans_a, const Tensor& b,
          Trans trans_b, float beta, Tensor& c) {
  detail::gemm_with(detail::gram_kernel_selected(), alpha, a, trans_a, b,
                    trans_b, beta, c);
}

void detail::gemm_with(GramKernel kernel, float alpha, const Tensor& a,
                       Trans trans_a, const Tensor& b, Trans trans_b,
                       float beta, Tensor& c) {
  DKFAC_CHECK(gram_kernel_available(kernel))
      << "gemm kernel " << gram_kernel_name(kernel)
      << " is not available on this build or CPU";
  check_rank2(a, "A");
  check_rank2(b, "B");
  check_rank2(c, "C");
  const int64_t m = trans_a == Trans::kNo ? a.dim(0) : a.dim(1);
  const int64_t k = trans_a == Trans::kNo ? a.dim(1) : a.dim(0);
  const int64_t kb = trans_b == Trans::kNo ? b.dim(0) : b.dim(1);
  const int64_t n = trans_b == Trans::kNo ? b.dim(1) : b.dim(0);
  DKFAC_CHECK(k == kb) << "gemm inner dim mismatch: " << k << " vs " << kb;
  DKFAC_CHECK(c.dim(0) == m && c.dim(1) == n)
      << "gemm output shape " << c.shape() << " expected [" << m << ", " << n << "]";

  apply_beta(beta, c.data(), c.numel());
  const OpView av{a.data(), a.dim(1), trans_a == Trans::kYes};
  const OpView bv{b.data(), b.dim(1), trans_b == Trans::kYes};
#ifdef DKFAC_MICROKERNEL_AVX2
  if (kernel == GramKernel::kAvx512) {
    gemm_avx512(alpha, av, bv, c.data(), n, m, n, k);
    return;
  }
#endif
  gemm_driver(alpha, av, bv, c.data(), n, m, n, k, /*upper_only=*/false);
}

Tensor matmul(const Tensor& a, const Tensor& b, Trans trans_a, Trans trans_b) {
  check_rank2(a, "A");
  check_rank2(b, "B");
  const int64_t m = trans_a == Trans::kNo ? a.dim(0) : a.dim(1);
  const int64_t n = trans_b == Trans::kNo ? b.dim(1) : b.dim(0);
  // The constructor zero-fills C, so beta = 1 adds the product onto +0
  // exactly as beta = 0 would after its own zeroing pass: same bits, one
  // pass over C fewer.
  Tensor c(Shape{m, n});
  gemm(1.0f, a, trans_a, b, trans_b, 1.0f, c);
  return c;
}

void syrk(float alpha, const Tensor& a, Trans trans, float beta, Tensor& c) {
  detail::syrk_with(detail::gram_kernel_selected(), alpha, a, trans, beta, c);
}

void detail::syrk_with(GramKernel kernel, float alpha, const Tensor& a,
                       Trans trans, float beta, Tensor& c) {
  check_rank2(a, "A");
  check_rank2(c, "C");
  const int64_t n = trans == Trans::kYes ? a.dim(1) : a.dim(0);
  const int64_t k = trans == Trans::kYes ? a.dim(0) : a.dim(1);
  DKFAC_CHECK(c.dim(0) == n && c.dim(1) == n)
      << "syrk output shape " << c.shape() << " expected [" << n << ", " << n << "]";

  apply_beta(beta, c.data(), c.numel());
  gram_upper(kernel, alpha, a.data(), a.dim(1), trans == Trans::kYes, n, k,
             c.data());

  // Mirror the computed upper triangle; C comes back exactly symmetric.
  float* pc = c.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) pc[j * n + i] = pc[i * n + j];
  }
}

void gemv(float alpha, const Tensor& a, Trans trans_a, const Tensor& x,
          float beta, Tensor& y) {
  check_rank2(a, "A");
  DKFAC_CHECK(x.ndim() == 1 && y.ndim() == 1) << "gemv needs rank-1 x and y";
  const int64_t m = trans_a == Trans::kNo ? a.dim(0) : a.dim(1);
  const int64_t k = trans_a == Trans::kNo ? a.dim(1) : a.dim(0);
  DKFAC_CHECK(x.dim(0) == k) << "gemv x length " << x.dim(0) << " expected " << k;
  DKFAC_CHECK(y.dim(0) == m) << "gemv y length " << y.dim(0) << " expected " << m;

  const int64_t lda = a.dim(1);
  const float* pa = a.data();
  const float* px = x.data();
  float* py = y.data();
  const bool par = parallel_kernels_allowed() && m * k >= (1 << 14);

  if (trans_a == Trans::kNo) {
    // One contiguous row per output: SIMD dot product in double.
#pragma omp parallel for schedule(static) if (par)
    for (int64_t i = 0; i < m; ++i) {
      const float* row = pa + i * lda;
      double acc = 0.0;
#pragma omp simd reduction(+ : acc)
      for (int64_t j = 0; j < k; ++j) {
        acc += static_cast<double>(row[j]) * px[j];
      }
      const float ax = alpha * static_cast<float>(acc);
      py[i] = beta == 0.0f ? ax : ax + beta * py[i];
    }
    return;
  }

  // Transposed: y = alpha·Aᵀx. Process output in fixed-width chunks; within
  // a chunk, stream A row-wise (contiguous) and accumulate per-element in
  // ascending-j order — the chunk grid is independent of the thread count,
  // so results are deterministic, and every A read is contiguous.
  constexpr int64_t kChunk = 256;
  const int64_t num_chunks = (m + kChunk - 1) / kChunk;
#pragma omp parallel for schedule(static) if (par)
  for (int64_t ch = 0; ch < num_chunks; ++ch) {
    const int64_t i0 = ch * kChunk;
    const int64_t len = std::min(kChunk, m - i0);
    double acc[kChunk];
    std::memset(acc, 0, static_cast<size_t>(len) * sizeof(double));
    for (int64_t j = 0; j < k; ++j) {
      const float* row = pa + j * lda + i0;
      const double xj = px[j];
#pragma omp simd
      for (int64_t i = 0; i < len; ++i) {
        acc[i] += static_cast<double>(row[i]) * xj;
      }
    }
    for (int64_t i = 0; i < len; ++i) {
      const float ax = alpha * static_cast<float>(acc[i]);
      py[i0 + i] = beta == 0.0f ? ax : ax + beta * py[i0 + i];
    }
  }
}

Tensor transpose(const Tensor& a) {
  check_rank2(a, "A");
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  Tensor out(Shape{n, m});
  const float* src = a.data();
  float* dst = out.data();
  constexpr int64_t kBlock = 32;
  const int64_t iblocks = (m + kBlock - 1) / kBlock;
  const int64_t jblocks = (n + kBlock - 1) / kBlock;
  const bool par = parallel_kernels_allowed() && m * n >= (1 << 16);
#pragma omp parallel for schedule(static) collapse(2) if (par)
  for (int64_t bi = 0; bi < iblocks; ++bi) {
    for (int64_t bj = 0; bj < jblocks; ++bj) {
      const int64_t i0 = bi * kBlock;
      const int64_t j0 = bj * kBlock;
      const int64_t i1 = std::min(i0 + kBlock, m);
      const int64_t j1 = std::min(j0 + kBlock, n);
      for (int64_t i = i0; i < i1; ++i) {
        for (int64_t j = j0; j < j1; ++j) {
          dst[j * m + i] = src[i * n + j];
        }
      }
    }
  }
  return out;
}

void symmetrize(Tensor& a) {
  check_rank2(a, "A");
  DKFAC_CHECK(a.dim(0) == a.dim(1)) << "symmetrize needs square, got " << a.shape();
  const int64_t n = a.dim(0);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      const float v = 0.5f * (a.at(i, j) + a.at(j, i));
      a.at(i, j) = v;
      a.at(j, i) = v;
    }
  }
}

void add_diagonal(Tensor& a, float gamma) {
  check_rank2(a, "A");
  DKFAC_CHECK(a.dim(0) == a.dim(1)) << "add_diagonal needs square, got " << a.shape();
  const int64_t n = a.dim(0);
  for (int64_t i = 0; i < n; ++i) a.at(i, i) += gamma;
}

float asymmetry(const Tensor& a) {
  check_rank2(a, "A");
  DKFAC_CHECK(a.dim(0) == a.dim(1));
  const int64_t n = a.dim(0);
  float m = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      m = std::max(m, std::abs(a.at(i, j) - a.at(j, i)));
    }
  }
  return m;
}

float frobenius_distance(const Tensor& a, const Tensor& b) {
  DKFAC_CHECK(a.shape() == b.shape())
      << "frobenius_distance shapes " << a.shape() << " vs " << b.shape();
  double total = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    total += d * d;
  }
  return static_cast<float>(std::sqrt(total));
}

}  // namespace dkfac::linalg

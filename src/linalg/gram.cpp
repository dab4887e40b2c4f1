#include "linalg/gram.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/error.hpp"
#include "linalg/gemm_driver.hpp"
#include "linalg/microkernel.hpp"
#include "linalg/pack.hpp"
#include "linalg/threading.hpp"

// The AVX-512 kernel rides on the native-arch build (the -mavx2 -mfma flags
// that define DKFAC_MICROKERNEL_AVX2); its tile is a target-attribute
// function, so only code that runs after the CPU check uses AVX-512.
#ifdef DKFAC_MICROKERNEL_AVX2
#include <cpuid.h>
#endif

namespace dkfac::linalg::detail {

namespace {

constexpr int64_t kSliver = 16;  // sliver height = tile edge
constexpr int64_t kTile = kSliver * kSliver;

/// Packs rows [i0, i0 + rows) of op(A), rows ≤ 16, over k-slab
/// [k0, k0 + kc) as one sliver: dst[k·16 + r]; rows past `rows` are zero.
using PackFn = void (*)(const OpView& a, int64_t i0, int64_t rows, int64_t k0,
                        int64_t kc, float* dst);
/// acc[r·16 + c] = Σ_k sp[k·16 + r] · tp[k·16 + c], k ascending from zero.
using TileFn = void (*)(int64_t kc, const float* sp, const float* tp,
                        float* acc);

struct GramOps {
  PackFn pack;
  TileFn tile;
};

#ifndef DKFAC_MICROKERNEL_AVX2
/// The GEMM packer at sliver height 16 (straight copies for AᵀA, one
/// gathered element per row and k step for AAᵀ) is the portable PackFn.
constexpr PackFn pack_copy = pack_a<float, kSliver>;

void tile_portable(int64_t kc, const float* sp, const float* tp, float* acc) {
  std::fill(acc, acc + kTile, 0.0f);
  microkernel_portable<float, kSliver>(kc, sp, tp, acc);
}
#else
/// R (4 or 6) rows × 16 columns of the tile: 2R ymm accumulators, named
/// one by one so they stay in registers.
template <int R>
inline void subtile_avx2(int64_t kc, const float* sp, const float* tp,
                         float* acc) {
  static_assert(R == 4 || R == 6);
  __m256 c00 = _mm256_setzero_ps(), c01 = c00, c10 = c00, c11 = c00;
  __m256 c20 = c00, c21 = c00, c30 = c00, c31 = c00;
  __m256 c40 = c00, c41 = c00, c50 = c00, c51 = c00;
  for (int64_t k = 0; k < kc; ++k) {
    const float* a = sp + k * kSliver;
    const __m256 b0 = _mm256_loadu_ps(tp + k * kSliver);
    const __m256 b1 = _mm256_loadu_ps(tp + k * kSliver + 8);
    __m256 av = _mm256_broadcast_ss(a + 0);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(a + 1);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(a + 2);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(a + 3);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    if constexpr (R == 6) {
      av = _mm256_broadcast_ss(a + 4);
      c40 = _mm256_fmadd_ps(av, b0, c40);
      c41 = _mm256_fmadd_ps(av, b1, c41);
      av = _mm256_broadcast_ss(a + 5);
      c50 = _mm256_fmadd_ps(av, b0, c50);
      c51 = _mm256_fmadd_ps(av, b1, c51);
    }
  }
  _mm256_storeu_ps(acc + 0 * kSliver, c00);
  _mm256_storeu_ps(acc + 0 * kSliver + 8, c01);
  _mm256_storeu_ps(acc + 1 * kSliver, c10);
  _mm256_storeu_ps(acc + 1 * kSliver + 8, c11);
  _mm256_storeu_ps(acc + 2 * kSliver, c20);
  _mm256_storeu_ps(acc + 2 * kSliver + 8, c21);
  _mm256_storeu_ps(acc + 3 * kSliver, c30);
  _mm256_storeu_ps(acc + 3 * kSliver + 8, c31);
  if constexpr (R == 6) {
    _mm256_storeu_ps(acc + 4 * kSliver, c40);
    _mm256_storeu_ps(acc + 4 * kSliver + 8, c41);
    _mm256_storeu_ps(acc + 5 * kSliver, c50);
    _mm256_storeu_ps(acc + 5 * kSliver + 8, c51);
  }
}

void tile_avx2(int64_t kc, const float* sp, const float* tp, float* acc) {
  subtile_avx2<6>(kc, sp, tp, acc);
  subtile_avx2<6>(kc, sp + 6, tp, acc + 6 * kSliver);
  subtile_avx2<4>(kc, sp + 12, tp, acc + 12 * kSliver);
}

/// CPUID reports avx512f and the OS saves the opmask and zmm state (XCR0
/// bits 1, 2, 5, 6, 7).
bool cpu_runs_avx512f() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 || (ecx & bit_OSXSAVE) == 0) {
    return false;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0 ||
      (ebx & bit_AVX512F) == 0) {
    return false;
  }
  unsigned xcr0 = 0, xcr0_hi = 0;
  __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_hi) : "c"(0));
  return (xcr0 & 0xE6) == 0xE6;
}

/// One zmm accumulator per tile row; the broadcast operand folds into the
/// FMA as an embedded {1to16} load.
__attribute__((target("avx512f"))) void tile_avx512(int64_t kc, const float* sp,
                                                    const float* tp, float* acc) {
  __m512 c[kSliver];
#pragma GCC unroll 16
  for (int r = 0; r < kSliver; ++r) c[r] = _mm512_setzero_ps();
  for (int64_t k = 0; k < kc; ++k) {
    const __m512 b = _mm512_loadu_ps(tp + k * kSliver);
    const float* a = sp + k * kSliver;
#pragma GCC unroll 16
    for (int r = 0; r < kSliver; ++r) {
      c[r] = _mm512_fmadd_ps(_mm512_set1_ps(a[r]), b, c[r]);
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < kSliver; ++r) _mm512_storeu_ps(acc + r * kSliver, c[r]);
}
#endif  // DKFAC_MICROKERNEL_AVX2

GramOps ops_for(GramKernel kernel) {
  switch (kernel) {
#ifdef DKFAC_MICROKERNEL_AVX2
    case GramKernel::kAvx512:
      return {pack_sliver_avx2<kSliver>, tile_avx512};
    case GramKernel::kAvx2:
      return {pack_sliver_avx2<kSliver>, tile_avx2};
#else
    case GramKernel::kPortable:
      return {pack_copy, tile_portable};
#endif
    default:
      break;
  }
  DKFAC_CHECK(false) << "Gram kernel " << gram_kernel_name(kernel)
                     << " is not built";
  return {};
}

/// Tile pair p in t-major order (p = t(t+1)/2 + s, s ≤ t).
std::pair<int64_t, int64_t> pair_of(int64_t p) {
  int64_t t = 0;
  while ((t + 1) * (t + 2) / 2 <= p) ++t;
  return {p - t * (t + 1) / 2, t};
}

}  // namespace

const char* gram_kernel_name(GramKernel kernel) {
  switch (kernel) {
    case GramKernel::kAvx512:
      return "avx512";
    case GramKernel::kAvx2:
      return "avx2";
    case GramKernel::kPortable:
      return "portable";
  }
  return "unknown";
}

bool gram_kernel_available(GramKernel kernel) {
  switch (kernel) {
    case GramKernel::kAvx512: {
#ifdef DKFAC_MICROKERNEL_AVX2
      static const bool runs = cpu_runs_avx512f();
      return runs;
#else
      return false;
#endif
    }
    case GramKernel::kAvx2:
      return microkernel_is_avx2();
    case GramKernel::kPortable:
      return !microkernel_is_avx2();
  }
  return false;
}

GramKernel gram_kernel_selected() {
  static const GramKernel selected = [] {
    for (GramKernel kernel : kGramKernels) {
      if (gram_kernel_available(kernel)) return kernel;
    }
    return GramKernel::kPortable;
  }();
  return selected;
}

void gram_upper(GramKernel kernel, float alpha, const float* a, int64_t lda,
                bool trans, int64_t n, int64_t k, float* c) {
  DKFAC_CHECK(gram_kernel_available(kernel))
      << "Gram kernel " << gram_kernel_name(kernel)
      << " is not available on this build or CPU";
  if (n == 0 || k == 0 || alpha == 0.0f) return;

  const GramOps ops = ops_for(kernel);
  const OpView av{a, lda, trans};
  const int64_t slivers = (n + kSliver - 1) / kSliver;
  const int64_t pairs = slivers * (slivers + 1) / 2;
  float* pack = thread_buffer<0>(slivers * kSliver * std::min(k, kKC));
  const bool par = parallel_kernels_allowed() && n * n * k >= (1 << 15);

#pragma omp parallel if (par)
  {
    alignas(64) float acc[kTile];
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
#pragma omp for schedule(static)
      for (int64_t s = 0; s < slivers; ++s) {
        const int64_t i0 = s * kSliver;
        ops.pack(av, i0, std::min(kSliver, n - i0), pc, kc, pack + i0 * kc);
      }  // implicit barrier: the whole slab is packed before a tile reads it

#pragma omp for schedule(static)
      for (int64_t p = 0; p < pairs; ++p) {
        const auto [s, t] = pair_of(p);
        const int64_t i0 = s * kSliver;
        const int64_t j0 = t * kSliver;
        ops.tile(kc, pack + i0 * kc, pack + j0 * kc, acc);
        write_tile(alpha, acc, kSliver, c, n, i0, std::min(kSliver, n - i0),
                   j0, std::min(kSliver, n - j0), /*upper_only=*/true);
      }  // implicit barrier before the next slab's pack
    }
  }
}

}  // namespace dkfac::linalg::detail

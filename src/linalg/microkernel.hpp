// Register-blocked GEMM micro-kernels (Goto/BLIS-style innermost loop).
//
// The macro-kernels in gemm_driver.hpp feed transpose-normalized panels
// (see pack.hpp) to one micro-kernel per tile shape, each computing an
// MR×NR accumulator tile over a KC-long k-slab. The tile family:
//
//   - AVX-512 fp32 8×32 (16 zmm accumulators: 8 rows × two 16-float
//     vectors, each A value a {1to16} broadcast folded into its FMA). Its
//     B operand is read through a row pointer and a row stride, so the
//     driver can hand it a non-transposed op(B) in place; columns past the
//     tile's valid width are masked out of the loads. It is a
//     target-attribute function, run only after the CPU check that syrk's
//     Gram kernel already uses (gram.hpp), and exists only in builds with
//     DKFAC_MICROKERNEL_AVX2. The height divides the conv lowering's
//     output-channel counts (8, 16, 32), where a 6-row tile wastes rows.
//   - AVX2/FMA fp32 6×16 (12 ymm accumulators, the classic shape that
//     saturates both FMA ports) and fp64 6×8 (the same 12-accumulator
//     structure at 4 doubles per ymm) — compiled when the translation unit
//     is built with -mavx2 -mfma (CMake option DKFAC_NATIVE_ARCH). The fp32
//     one is gemm's kernel on CPUs without AVX-512; the fp64 one carries
//     the decomposition internals everywhere.
//   - a portable `#pragma omp simd` fallback with the identical
//     accumulation pattern, used on builds without those ISA extensions.
//
// The fp64 instance carries the decomposition internals (blocked
// Householder tridiagonalization, divide-and-conquer back-multiplication,
// blocked triangular inverse), which run in double for the same reason the
// original EISPACK-style solvers did: K-FAC factors are near-singular FP32
// accumulations.
//
// All kernels accumulate every output element strictly in ascending-k
// order, so a given build produces bitwise-identical results regardless of
// OMP_NUM_THREADS (threads only partition *which* tiles they compute, never
// the per-element reduction order). The two fp32 SIMD tiles are bitwise
// equal to each other: each element is the same FMA chain from zero over
// the same slab, whatever the tile it sits in. The intrinsics and portable
// kernels are NOT bitwise identical — FMA contracts the multiply-add —
// which is fine: determinism is per build, not across ISAs.
//
// Everything here is `static inline` on purpose: a TU compiled without AVX2
// (e.g. a test exercising the portable path) must get its own portable copy
// rather than linking against the library's AVX2 instance.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define DKFAC_MICROKERNEL_AVX2 1
#endif

namespace dkfac::linalg::detail {

/// Per-scalar micro-tile shape: kMr broadcast rows × kNr vector columns.
template <typename T>
struct MicroTile;
template <>
struct MicroTile<float> {
  static constexpr int64_t kMr = 6;
  static constexpr int64_t kNr = 16;
};
template <>
struct MicroTile<double> {
  static constexpr int64_t kMr = 6;
  static constexpr int64_t kNr = 8;
};

/// Cache blocking per scalar: MC×KC A-panels (per thread → L2) and KC×NC
/// B-panels (→ L3). The double parameters halve KC/NC so the panel *byte*
/// footprint matches the float configuration.
template <typename T>
struct GemmBlocking;
template <>
struct GemmBlocking<float> {
  static constexpr int64_t kMc = 96;
  static constexpr int64_t kKc = 256;
  static constexpr int64_t kNc = 1024;
};
template <>
struct GemmBlocking<double> {
  static constexpr int64_t kMc = 96;
  static constexpr int64_t kKc = 128;
  static constexpr int64_t kNc = 512;
};

/// fp32 tile shape aliases (the original names; used by the public kernels).
inline constexpr int64_t kMR = MicroTile<float>::kMr;
inline constexpr int64_t kNR = MicroTile<float>::kNr;
inline constexpr int64_t kMC = GemmBlocking<float>::kMc;
inline constexpr int64_t kKC = GemmBlocking<float>::kKc;
inline constexpr int64_t kNC = GemmBlocking<float>::kNc;

/// acc[r*kNr + c] += Σ_k ap[k*Mr + r] · bp[k*kNr + c], k ascending.
/// `ap` is an A sliver (Mr scalars per k step), `bp` a B sliver (kNr
/// scalars per k step); both are padded with zeros past the valid
/// rows/columns. Mr is the GEMM tile height by default; the portable Gram
/// kernel (gram.cpp) runs it on 16-row slivers.
template <typename T, int64_t Mr = MicroTile<T>::kMr>
[[maybe_unused]] static inline void microkernel_portable(int64_t kc,
                                                         const T* ap,
                                                         const T* bp, T* acc) {
  constexpr int64_t mr = Mr;
  constexpr int64_t nr = MicroTile<T>::kNr;
  for (int64_t k = 0; k < kc; ++k) {
    const T* a = ap + k * mr;
    const T* b = bp + k * nr;
    for (int64_t r = 0; r < mr; ++r) {
      const T av = a[r];
      T* row = acc + r * nr;
#pragma omp simd
      for (int64_t c = 0; c < nr; ++c) row[c] += av * b[c];
    }
  }
}

#ifdef DKFAC_MICROKERNEL_AVX2
/// AVX2/FMA fp32 instance of the same accumulation: 6 broadcast rows × two
/// 8-float vectors = 12 live ymm accumulators + 2 B vectors + 1 broadcast.
[[maybe_unused]] static inline void microkernel_avx2(int64_t kc,
                                                     const float* ap,
                                                     const float* bp,
                                                     float* acc) {
  __m256 c00 = _mm256_loadu_ps(acc + 0 * kNR);
  __m256 c01 = _mm256_loadu_ps(acc + 0 * kNR + 8);
  __m256 c10 = _mm256_loadu_ps(acc + 1 * kNR);
  __m256 c11 = _mm256_loadu_ps(acc + 1 * kNR + 8);
  __m256 c20 = _mm256_loadu_ps(acc + 2 * kNR);
  __m256 c21 = _mm256_loadu_ps(acc + 2 * kNR + 8);
  __m256 c30 = _mm256_loadu_ps(acc + 3 * kNR);
  __m256 c31 = _mm256_loadu_ps(acc + 3 * kNR + 8);
  __m256 c40 = _mm256_loadu_ps(acc + 4 * kNR);
  __m256 c41 = _mm256_loadu_ps(acc + 4 * kNR + 8);
  __m256 c50 = _mm256_loadu_ps(acc + 5 * kNR);
  __m256 c51 = _mm256_loadu_ps(acc + 5 * kNR + 8);
  for (int64_t k = 0; k < kc; ++k) {
    const float* a = ap + k * kMR;
    const float* b = bp + k * kNR;
    const __m256 b0 = _mm256_loadu_ps(b);
    const __m256 b1 = _mm256_loadu_ps(b + 8);
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
    av = _mm256_broadcast_ss(a + 4);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_broadcast_ss(a + 5);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
  }
  _mm256_storeu_ps(acc + 0 * kNR, c00);
  _mm256_storeu_ps(acc + 0 * kNR + 8, c01);
  _mm256_storeu_ps(acc + 1 * kNR, c10);
  _mm256_storeu_ps(acc + 1 * kNR + 8, c11);
  _mm256_storeu_ps(acc + 2 * kNR, c20);
  _mm256_storeu_ps(acc + 2 * kNR + 8, c21);
  _mm256_storeu_ps(acc + 3 * kNR, c30);
  _mm256_storeu_ps(acc + 3 * kNR + 8, c31);
  _mm256_storeu_ps(acc + 4 * kNR, c40);
  _mm256_storeu_ps(acc + 4 * kNR + 8, c41);
  _mm256_storeu_ps(acc + 5 * kNR, c50);
  _mm256_storeu_ps(acc + 5 * kNR + 8, c51);
}

/// AVX2/FMA fp64 instance: the same 12-accumulator structure, 6 broadcast
/// rows × two 4-double vectors covering the 8-column tile.
[[maybe_unused]] static inline void microkernel_avx2_f64(int64_t kc,
                                                         const double* ap,
                                                         const double* bp,
                                                         double* acc) {
  constexpr int64_t mr = MicroTile<double>::kMr;
  constexpr int64_t nr = MicroTile<double>::kNr;
  __m256d c00 = _mm256_loadu_pd(acc + 0 * nr);
  __m256d c01 = _mm256_loadu_pd(acc + 0 * nr + 4);
  __m256d c10 = _mm256_loadu_pd(acc + 1 * nr);
  __m256d c11 = _mm256_loadu_pd(acc + 1 * nr + 4);
  __m256d c20 = _mm256_loadu_pd(acc + 2 * nr);
  __m256d c21 = _mm256_loadu_pd(acc + 2 * nr + 4);
  __m256d c30 = _mm256_loadu_pd(acc + 3 * nr);
  __m256d c31 = _mm256_loadu_pd(acc + 3 * nr + 4);
  __m256d c40 = _mm256_loadu_pd(acc + 4 * nr);
  __m256d c41 = _mm256_loadu_pd(acc + 4 * nr + 4);
  __m256d c50 = _mm256_loadu_pd(acc + 5 * nr);
  __m256d c51 = _mm256_loadu_pd(acc + 5 * nr + 4);
  for (int64_t k = 0; k < kc; ++k) {
    const double* a = ap + k * mr;
    const double* b = bp + k * nr;
    const __m256d b0 = _mm256_loadu_pd(b);
    const __m256d b1 = _mm256_loadu_pd(b + 4);
    __m256d av = _mm256_broadcast_sd(a + 0);
    c00 = _mm256_fmadd_pd(av, b0, c00);
    c01 = _mm256_fmadd_pd(av, b1, c01);
    av = _mm256_broadcast_sd(a + 1);
    c10 = _mm256_fmadd_pd(av, b0, c10);
    c11 = _mm256_fmadd_pd(av, b1, c11);
    av = _mm256_broadcast_sd(a + 2);
    c20 = _mm256_fmadd_pd(av, b0, c20);
    c21 = _mm256_fmadd_pd(av, b1, c21);
    av = _mm256_broadcast_sd(a + 3);
    c30 = _mm256_fmadd_pd(av, b0, c30);
    c31 = _mm256_fmadd_pd(av, b1, c31);
    av = _mm256_broadcast_sd(a + 4);
    c40 = _mm256_fmadd_pd(av, b0, c40);
    c41 = _mm256_fmadd_pd(av, b1, c41);
    av = _mm256_broadcast_sd(a + 5);
    c50 = _mm256_fmadd_pd(av, b0, c50);
    c51 = _mm256_fmadd_pd(av, b1, c51);
  }
  _mm256_storeu_pd(acc + 0 * nr, c00);
  _mm256_storeu_pd(acc + 0 * nr + 4, c01);
  _mm256_storeu_pd(acc + 1 * nr, c10);
  _mm256_storeu_pd(acc + 1 * nr + 4, c11);
  _mm256_storeu_pd(acc + 2 * nr, c20);
  _mm256_storeu_pd(acc + 2 * nr + 4, c21);
  _mm256_storeu_pd(acc + 3 * nr, c30);
  _mm256_storeu_pd(acc + 3 * nr + 4, c31);
  _mm256_storeu_pd(acc + 4 * nr, c40);
  _mm256_storeu_pd(acc + 4 * nr + 4, c41);
  _mm256_storeu_pd(acc + 5 * nr, c50);
  _mm256_storeu_pd(acc + 5 * nr + 4, c51);
}

/// The AVX-512 fp32 tile: 8 broadcast rows × 32 columns.
struct Avx512Tile {
  static constexpr int64_t kMr = 8;
  static constexpr int64_t kNr = 32;
};

/// acc[r·32 + c] = Σ_k ap[k·8 + r] · b[k·ldb + c], an FMA chain from zero
/// over k ascending. `ap` is a packed 8-row A sliver (rows past the valid
/// ones zero); `b` is row k0 of a 32-column op(B) block with row stride
/// `ldb` — op(B) in place, or a packed sliver with ldb = 32. Columns
/// c ≥ nr are never read (masked loads) and come back as 0·a partials the
/// caller discards.
__attribute__((target("avx512f"))) [[maybe_unused]] static inline void
microkernel_avx512(int64_t kc, const float* ap, const float* b, int64_t ldb,
                   int64_t nr, float* acc) {
  constexpr int64_t mr = Avx512Tile::kMr;
  constexpr int64_t nr_tile = Avx512Tile::kNr;
  const auto lanes = [](int64_t count) -> __mmask16 {
    return count >= 16 ? __mmask16(0xFFFF)
                       : static_cast<__mmask16>((1u << std::max<int64_t>(count, 0)) - 1);
  };
  const __mmask16 lo = lanes(nr);
  const __mmask16 hi = lanes(nr - 16);
  __m512 c0[mr];
  __m512 c1[mr];
#pragma GCC unroll 8
  for (int r = 0; r < mr; ++r) c0[r] = c1[r] = _mm512_setzero_ps();
  for (int64_t k = 0; k < kc; ++k) {
    const float* brow = b + k * ldb;
    const __m512 b0 = _mm512_maskz_loadu_ps(lo, brow);
    const __m512 b1 = _mm512_maskz_loadu_ps(hi, brow + 16);
    const float* a = ap + k * mr;
#pragma GCC unroll 8
    for (int r = 0; r < mr; ++r) {
      const __m512 av = _mm512_set1_ps(a[r]);
      c0[r] = _mm512_fmadd_ps(av, b0, c0[r]);
      c1[r] = _mm512_fmadd_ps(av, b1, c1[r]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < mr; ++r) {
    _mm512_storeu_ps(acc + r * nr_tile, c0[r]);
    _mm512_storeu_ps(acc + r * nr_tile + 16, c1[r]);
  }
}
#endif  // DKFAC_MICROKERNEL_AVX2

/// The micro-kernel this TU's build flags select for scalar type T.
template <typename T>
[[maybe_unused]] static inline void microkernel(int64_t kc, const T* ap,
                                                const T* bp, T* acc) {
#ifdef DKFAC_MICROKERNEL_AVX2
  if constexpr (std::is_same_v<T, float>) {
    microkernel_avx2(kc, ap, bp, acc);
  } else {
    microkernel_avx2_f64(kc, ap, bp, acc);
  }
#else
  microkernel_portable<T>(kc, ap, bp, acc);
#endif
}

/// True when this TU was compiled with the AVX2/FMA micro-kernels.
[[maybe_unused]] static inline bool microkernel_is_avx2() {
#ifdef DKFAC_MICROKERNEL_AVX2
  return true;
#else
  return false;
#endif
}

}  // namespace dkfac::linalg::detail

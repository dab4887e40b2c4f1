// Panel packing for the GEMM drivers (gemm_driver.hpp) and the Gram
// kernel (gram.cpp).
//
// The packers copy an MC×KC block of op(A) into kMr-row slivers and a KC×NC
// block of op(B) into kNr-column slivers, normalizing the transpose away:
// after packing, all four Trans combinations feed the micro-kernel the same
// contiguous layout, so transposed operands cost a strided *pack* (O(mk))
// instead of strided reads in the O(mnk) inner loop. Partial slivers at the
// matrix edge are zero-padded — the micro-kernel always runs full kMr×kNr
// tiles and the epilogue discards the padded rows/columns (0·0
// contributions, so padding never perturbs valid elements, including
// NaN/Inf propagation from real data).
//
// pack_a/pack_b are templated on the scalar: the fp32 instantiation backs
// the AVX2 and portable gemm, the fp64 one the decomposition internals. The
// sliver widths come from MicroTile<T> (microkernel.hpp).
//
// pack_sliver_avx2 is the fp32 packer of the SIMD kernels: pack_a's layout
// for one H-row sliver, built from 8×8 register transposes where op(X)'s
// rows are contiguous in k. The Gram kernel packs 16-row slivers of op(A)
// with it; the AVX-512 gemm packs its 8-row A strips and, for a transposed
// op(B), its 32-column B slivers (rows of op(B)ᵀ).
#pragma once

#include <algorithm>
#include <cstdint>

#include "linalg/microkernel.hpp"

namespace dkfac::linalg::detail {

/// Read-only view of op(X) for a row-major matrix X with leading dimension
/// `ld`: element (i, j) of the *logical* (post-transpose) operand.
template <typename T>
struct OpViewT {
  const T* data;
  int64_t ld;
  bool trans;

  T at(int64_t i, int64_t j) const {
    return trans ? data[j * ld + i] : data[i * ld + j];
  }
};

/// fp32 alias — the name the public kernels and tests use.
using OpView = OpViewT<float>;

/// Pack rows [i0, i0+mc) × k-slab [k0, k0+kc) of op(A) into `buf`:
/// sliver s (rows i0+s·Mr …) stores Mr consecutive rows k-major, i.e.
/// buf[s·Mr·kc + k·Mr + r] = op(A)(i0 + s·Mr + r, k0 + k). Mr is the GEMM
/// tile height by default; the Gram kernel (gram.hpp) packs 16-row slivers.
template <typename T, int64_t Mr = MicroTile<T>::kMr>
inline void pack_a(const OpViewT<T>& a, int64_t i0, int64_t mc, int64_t k0,
                   int64_t kc, T* buf) {
  constexpr int64_t mr_tile = Mr;
  for (int64_t s0 = 0; s0 < mc; s0 += mr_tile) {
    const int64_t mr = std::min(mr_tile, mc - s0);
    T* dst = buf + s0 * kc;
    if (a.trans) {
      // op(A)(i, k) = data[k·ld + i]: each k step is contiguous in i, which
      // is exactly the sliver layout — straight copies.
      for (int64_t k = 0; k < kc; ++k) {
        const T* src = a.data + (k0 + k) * a.ld + i0 + s0;
        T* out = dst + k * mr_tile;
        for (int64_t r = 0; r < mr; ++r) out[r] = src[r];
        for (int64_t r = mr; r < mr_tile; ++r) out[r] = T(0);
      }
    } else {
      // Row-major rows: each k step gathers one element from each of the
      // sliver's rows (mr streams read in step), so the sliver is written
      // front to back.
      const T* src = a.data + (i0 + s0) * a.ld + k0;
      for (int64_t k = 0; k < kc; ++k) {
        T* out = dst + k * mr_tile;
        for (int64_t r = 0; r < mr; ++r) out[r] = src[r * a.ld + k];
        for (int64_t r = mr; r < mr_tile; ++r) out[r] = T(0);
      }
    }
  }
}

/// Pack k-slab [k0, k0+kc) × columns [j0, j0+nc) of op(B) into `buf`:
/// sliver t (columns j0+t·kNr …) stores kNr consecutive columns k-major,
/// i.e. buf[t·kNr·kc + k·kNr + c] = op(B)(k0 + k, j0 + t·kNr + c).
template <typename T>
inline void pack_b(const OpViewT<T>& b, int64_t k0, int64_t kc, int64_t j0,
                   int64_t nc, T* buf) {
  constexpr int64_t nr_tile = MicroTile<T>::kNr;
  for (int64_t t0 = 0; t0 < nc; t0 += nr_tile) {
    const int64_t nr = std::min(nr_tile, nc - t0);
    T* dst = buf + t0 * kc;
    if (b.trans) {
      // op(B)(k, j) = data[j·ld + k]: each column j is contiguous in k;
      // each k step gathers one element per column (nr streams read in
      // step), so the sliver is written front to back.
      const T* src = b.data + (j0 + t0) * b.ld + k0;
      for (int64_t k = 0; k < kc; ++k) {
        T* out = dst + k * nr_tile;
        for (int64_t c = 0; c < nr; ++c) out[c] = src[c * b.ld + k];
        for (int64_t c = nr; c < nr_tile; ++c) out[c] = T(0);
      }
    } else {
      // Row-major rows of B are contiguous in j — straight copies.
      for (int64_t k = 0; k < kc; ++k) {
        const T* src = b.data + (k0 + k) * b.ld + j0 + t0;
        T* out = dst + k * nr_tile;
        for (int64_t c = 0; c < nr; ++c) out[c] = src[c];
        for (int64_t c = nr; c < nr_tile; ++c) out[c] = T(0);
      }
    }
  }
}

#ifdef DKFAC_MICROKERNEL_AVX2
/// Transposes the 8×8 block at src (row stride ld) into dst (row stride
/// dst_ld): dst[c·dst_ld + r] = src[r·ld + c].
inline void transpose8x8_avx2(const float* src, int64_t ld, float* dst,
                              int64_t dst_ld) {
  __m256 r[8];
  for (int i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + i * ld);
  __m256 t[8];
  for (int i = 0; i < 4; ++i) {
    t[2 * i] = _mm256_unpacklo_ps(r[2 * i], r[2 * i + 1]);
    t[2 * i + 1] = _mm256_unpackhi_ps(r[2 * i], r[2 * i + 1]);
  }
  // u[4h + j] holds columns j and j + 4 of rows 4h … 4h + 3.
  __m256 u[8];
  for (int h = 0; h < 2; ++h) {
    u[4 * h + 0] = _mm256_shuffle_ps(t[4 * h], t[4 * h + 2], 0x44);
    u[4 * h + 1] = _mm256_shuffle_ps(t[4 * h], t[4 * h + 2], 0xEE);
    u[4 * h + 2] = _mm256_shuffle_ps(t[4 * h + 1], t[4 * h + 3], 0x44);
    u[4 * h + 3] = _mm256_shuffle_ps(t[4 * h + 1], t[4 * h + 3], 0xEE);
  }
  for (int j = 0; j < 4; ++j) {
    _mm256_storeu_ps(dst + j * dst_ld, _mm256_permute2f128_ps(u[j], u[4 + j], 0x20));
    _mm256_storeu_ps(dst + (j + 4) * dst_ld,
                     _mm256_permute2f128_ps(u[j], u[4 + j], 0x31));
  }
}

/// Packs rows [i0, i0 + rows) of op(X), rows ≤ H, over k-slab [k0, k0 + kc)
/// as one sliver: dst[k·H + r] = op(X)(i0 + r, k0 + k), rows past `rows`
/// zero (pack_a's layout). A transposed op(X) is already k-major and takes
/// pack_a's straight copies; otherwise full 8-row groups go through 8×8
/// register transposes, and the rows of a partial group and the k tail
/// take scalar paths, so no load passes the end of a row.
template <int64_t H>
inline void pack_sliver_avx2(const OpView& x, int64_t i0, int64_t rows,
                             int64_t k0, int64_t kc, float* dst) {
  if (x.trans) {
    pack_a<float, H>(x, i0, rows, k0, kc, dst);
    return;
  }
  int64_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    const float* src = x.data + (i0 + r) * x.ld + k0;
    int64_t k = 0;
    for (; k + 8 <= kc; k += 8) transpose8x8_avx2(src + k, x.ld, dst + k * H + r, H);
    for (; k < kc; ++k) {
      for (int64_t q = 0; q < 8; ++q) dst[k * H + r + q] = src[q * x.ld + k];
    }
  }
  for (; r < rows; ++r) {
    const float* src = x.data + (i0 + r) * x.ld + k0;
    for (int64_t k = 0; k < kc; ++k) dst[k * H + r] = src[k];
  }
  if (rows < H) {
    for (int64_t k = 0; k < kc; ++k) {
      std::fill(dst + k * H + rows, dst + (k + 1) * H, 0.0f);
    }
  }
}
#endif  // DKFAC_MICROKERNEL_AVX2

}  // namespace dkfac::linalg::detail

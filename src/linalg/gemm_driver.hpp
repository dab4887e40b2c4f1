// Goto-style GEMM macro-kernel, shared by fp32 gemm (blas.cpp) and the
// fp64 decomposition internals (householder.cpp, tridiag_dc.cpp,
// cholesky.cpp). fp32 syrk runs its own one-pack Gram kernel (gram.hpp),
// which reuses write_tile below.
//
// The driver computes C += alpha·op(A)·op(B) over an arbitrary-leading-
// dimension output (so decomposition code can hit trailing submatrices in
// place), with an `upper_only` mode that skips micro-tiles strictly below
// the diagonal — the fp64 Cholesky panel update and Householder rank-2k
// path. The caller owns the beta pass.
//
// Loop nest (jc → pc → ic ∥ → jr → ir): one parallel region wraps the
// whole nest (per-thread A-pack allocated once per call); B-panels are
// packed once per (jc, pc) in a `single` section and shared. Threads
// normally partition row-blocks (ic); when the matrix has a single
// row-block (tall-skinny shapes, m ≤ MC), the A-panel is packed shared and
// threads partition column tiles (jr) instead. Either way every output
// element is accumulated by exactly one thread in ascending-k order, and
// the mode depends only on the shape — so results are bitwise invariant to
// the thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "linalg/microkernel.hpp"
#include "linalg/pack.hpp"
#include "linalg/threading.hpp"

namespace dkfac::linalg::detail {

/// Writes the valid region of one accumulated micro-tile into C (leading
/// dimension ldc), applying alpha; with `upper_only` it drops elements
/// below the diagonal.
template <typename T>
inline void write_tile(T alpha, const T* acc, T* c, int64_t ldc, int64_t i0,
                       int64_t mr, int64_t j0, int64_t nr, bool upper_only) {
  constexpr int64_t nr_tile = MicroTile<T>::kNr;
  for (int64_t r = 0; r < mr; ++r) {
    T* crow = c + (i0 + r) * ldc;
    const T* arow = acc + r * nr_tile;
    const int64_t c_begin = upper_only ? std::max<int64_t>(0, i0 + r - j0) : 0;
    for (int64_t cc = c_begin; cc < nr; ++cc) {
      crow[j0 + cc] += alpha * arow[cc];
    }
  }
}

/// C(m×n, row-major, leading dimension ldc) += alpha·op(A)·op(B).
/// When `upper_only`, only elements with col ≥ row are written; computed
/// elements follow the exact same accumulation order as the full product,
/// so they match the unrestricted call bitwise.
template <typename T>
inline void gemm_driver(T alpha, const OpViewT<T>& a, const OpViewT<T>& b,
                        T* c, int64_t ldc, int64_t m, int64_t n, int64_t k,
                        bool upper_only) {
  if (m == 0 || n == 0 || k == 0 || alpha == T(0)) return;

  constexpr int64_t mr_tile = MicroTile<T>::kMr;
  constexpr int64_t nr_tile = MicroTile<T>::kNr;
  constexpr int64_t mc_blk = GemmBlocking<T>::kMc;
  constexpr int64_t kc_blk = GemmBlocking<T>::kKc;
  constexpr int64_t nc_blk = GemmBlocking<T>::kNc;
  static_assert(mc_blk % mr_tile == 0, "A-panel height must be a sliver multiple");

  const bool par = parallel_kernels_allowed() && m * n * k >= (1 << 15);
  const int64_t bpack_cols = std::min(n, nc_blk);
  const int64_t bpack_slivers = (bpack_cols + nr_tile - 1) / nr_tile;
  std::vector<T> bpack(
      static_cast<size_t>(bpack_slivers * nr_tile * std::min(k, kc_blk)));
  const int64_t num_iblocks = (m + mc_blk - 1) / mc_blk;
  const bool col_mode = num_iblocks == 1;
  const int64_t apack_elems =
      (col_mode ? (m + mr_tile - 1) / mr_tile * mr_tile : mc_blk) *
      std::min(k, kc_blk);
  std::vector<T> apack_shared(col_mode ? static_cast<size_t>(apack_elems) : 0);

#pragma omp parallel if (par)
  {
    std::vector<T> apack_local(col_mode ? 0
                                        : static_cast<size_t>(apack_elems));
    alignas(32) T acc[mr_tile * nr_tile];

    for (int64_t jc = 0; jc < n; jc += nc_blk) {
      const int64_t nc = std::min(nc_blk, n - jc);
      for (int64_t pc = 0; pc < k; pc += kc_blk) {
        const int64_t kc = std::min(kc_blk, k - pc);
#pragma omp single
        {
          pack_b(b, pc, kc, jc, nc, bpack.data());
          if (col_mode) pack_a(a, 0, m, pc, kc, apack_shared.data());
        }  // implicit barrier: packs are visible before any tile computes

        if (col_mode) {
          const int64_t num_jtiles = (nc + nr_tile - 1) / nr_tile;
#pragma omp for schedule(static)
          for (int64_t jt = 0; jt < num_jtiles; ++jt) {
            const int64_t jr = jt * nr_tile;
            const int64_t nr = std::min(nr_tile, nc - jr);
            const int64_t j0 = jc + jr;
            for (int64_t ir = 0; ir < m; ir += mr_tile) {
              const int64_t mr = std::min(mr_tile, m - ir);
              if (upper_only && ir > j0 + nr - 1) continue;
              std::memset(acc, 0, sizeof(acc));
              microkernel(kc, apack_shared.data() + ir * kc,
                          bpack.data() + jr * kc, acc);
              write_tile(alpha, acc, c, ldc, ir, mr, j0, nr, upper_only);
            }
          }  // implicit barrier before the next slab's pack
        } else {
#pragma omp for schedule(static)
          for (int64_t ib = 0; ib < num_iblocks; ++ib) {
            const int64_t ic = ib * mc_blk;
            const int64_t mc = std::min(mc_blk, m - ic);
            // Row-block entirely below every column of this jc panel: no
            // upper-triangle element lives here.
            if (upper_only && ic > jc + nc - 1) continue;
            pack_a(a, ic, mc, pc, kc, apack_local.data());
            for (int64_t jr = 0; jr < nc; jr += nr_tile) {
              const int64_t nr = std::min(nr_tile, nc - jr);
              for (int64_t ir = 0; ir < mc; ir += mr_tile) {
                const int64_t mr = std::min(mr_tile, mc - ir);
                const int64_t i0 = ic + ir;
                const int64_t j0 = jc + jr;
                if (upper_only && i0 > j0 + nr - 1) continue;
                std::memset(acc, 0, sizeof(acc));
                microkernel(kc, apack_local.data() + ir * kc,
                            bpack.data() + jr * kc, acc);
                write_tile(alpha, acc, c, ldc, i0, mr, j0, nr, upper_only);
              }
            }
          }  // implicit barrier before the next slab's pack
        }
      }
    }
  }
}

/// C(m×n, leading dim ldc) += alpha·op(A)·op(B) — raw-pointer convenience
/// wrapper used by the decomposition internals. `ta`/`tb` flag transposed
/// operands; `lda`/`ldb` are the *storage* leading dimensions.
template <typename T>
inline void gemm_accum(T alpha, const T* a, int64_t lda, bool ta, const T* b,
                       int64_t ldb, bool tb, T* c, int64_t ldc, int64_t m,
                       int64_t n, int64_t k) {
  gemm_driver<T>(alpha, OpViewT<T>{a, lda, ta}, OpViewT<T>{b, ldb, tb}, c,
                 ldc, m, n, k, /*upper_only=*/false);
}

}  // namespace dkfac::linalg::detail

// Goto-style GEMM macro-kernels: fp32 gemm (blas.cpp) and the fp64
// decomposition internals (householder.cpp, tridiag_dc.cpp, cholesky.cpp).
// fp32 syrk runs its own one-pack Gram kernel (gram.hpp), which reuses
// write_tile and thread_buffer below.
//
// Both drivers compute C += alpha·op(A)·op(B) over an arbitrary-leading-
// dimension output (so decomposition code can hit trailing submatrices in
// place). The caller owns the beta pass. Every output element is an FMA
// (portable: multiply-add) chain over ascending k that starts from zero
// within each kKc-deep slab, and each slab partial is added into C as
// `c += alpha * acc` by write_tile, in slab order. That arithmetic, not the
// tile shape or the packing, fixes the bits: the AVX-512 and AVX2 fp32
// paths give the same C on every shape and thread count.
//
// gemm_driver (fp64, and fp32 on CPUs or builds without AVX-512): loop
// nest jc → pc → ic ∥ → jr → ir over MicroTile<T> tiles. One parallel
// region wraps the whole nest (per-thread A-pack allocated once per call);
// B-panels are packed once per (jc, pc) in a `single` section and shared.
// Threads normally partition row-blocks (ic); when the matrix has a single
// row-block (tall-skinny shapes, m ≤ MC), the A-panel is packed shared and
// threads partition column tiles (jr) instead. It has an `upper_only` mode
// that skips micro-tiles strictly below the diagonal — the fp64 Cholesky
// panel update and Householder rank-2k path.
//
// gemm_avx512 (fp32 on AVX-512 CPUs): 8×32 tiles (microkernel.hpp), shaped
// for the conv lowering's skinny products (M = output channels, 8…32).
//   - B in place: a non-transposed op(B) is read by the micro-kernel
//     through its leading dimension, with masked loads at the right edge;
//     nothing copies it. A transposed op(B) (the weight-gradient product
//     grad·patchesᵀ) is packed one 32-column sliver at a time with 8×8
//     register transposes (pack_sliver_avx2).
//   - Tile-parallel mode (the default): each thread owns a contiguous
//     range of column tiles and, per ≤ kMc-row panel and slab, packs that
//     panel's 8-row A strips once into its own buffer. No barrier, no
//     shared pack: every element is written by one thread, in slab order.
//   - Slab-parallel mode: when the output is one tile strip (m ≤ 8) with
//     fewer column tiles than K has slabs (the weight gradient, e.g.
//     8×8192×72: 3 tiles, 32 slabs), threads compute whole slab partials
//     into a shared buffer and the calling thread then adds them into C in
//     slab order — the same adds in the same order as one thread doing
//     every slab.
//   The mode depends only on the shape. Pack buffers are thread-local
//   (thread_buffer) and sized to one A panel or one B sliver of one slab,
//   so a call allocates nothing once they have grown.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "linalg/microkernel.hpp"
#include "linalg/pack.hpp"
#include "linalg/threading.hpp"

namespace dkfac::linalg::detail {

/// Writes the valid region of one accumulated micro-tile (rows acc_ld
/// apart) into C (leading dimension ldc), applying alpha; with
/// `upper_only` it drops elements below the diagonal.
template <typename T>
inline void write_tile(T alpha, const T* acc, int64_t acc_ld, T* c,
                       int64_t ldc, int64_t i0, int64_t mr, int64_t j0,
                       int64_t nr, bool upper_only) {
  for (int64_t r = 0; r < mr; ++r) {
    T* crow = c + (i0 + r) * ldc;
    const T* arow = acc + r * acc_ld;
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
              write_tile(alpha, acc, nr_tile, c, ldc, ir, mr, j0, nr,
                         upper_only);
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
                write_tile(alpha, acc, nr_tile, c, ldc, i0, mr, j0, nr,
                           upper_only);
              }
            }
          }  // implicit barrier before the next slab's pack
        }
      }
    }
  }
}

/// The calling thread's buffer number `Slot`, grown on demand (never
/// shrunk) and 64-byte aligned so every k step of a sliver starts a cache
/// line. Distinct slots never alias.
template <int Slot>
inline float* thread_buffer(int64_t floats) {
  thread_local std::vector<float> buffer;
  const size_t need = static_cast<size_t>(floats) + 16;
  if (buffer.size() < need) buffer.resize(need);
  const auto addr = reinterpret_cast<uintptr_t>(buffer.data());
  return reinterpret_cast<float*>((addr + 63) & ~uintptr_t{63});
}

#ifdef DKFAC_MICROKERNEL_AVX2
namespace avx512 {

constexpr int64_t kMr = Avx512Tile::kMr;
constexpr int64_t kNr = Avx512Tile::kNr;
constexpr int64_t kTile = kMr * kNr;
constexpr int64_t kMc = GemmBlocking<float>::kMc;
constexpr int64_t kKc = GemmBlocking<float>::kKc;
static_assert(kMc % kMr == 0, "A-panel height must be a strip multiple");

/// What the micro-kernel reads for one 32-column op(B) block: rows `ld`
/// floats apart, `load_nr` columns loaded.
struct BBlock {
  const float* data;
  int64_t ld;
  int64_t load_nr;
};

/// The op(B) block of slab [pc, pc + kc) at column j0, nr ≤ 32 columns
/// wide: op(B) itself when not transposed, else packed into `pack` (a
/// packed sliver is zero-padded to 32 columns, so all 32 load).
__attribute__((target("avx512f"))) inline BBlock b_block(const OpView& b,
                                                        int64_t pc, int64_t kc,
                                                        int64_t j0, int64_t nr,
                                                        float* pack) {
  if (!b.trans) return {b.data + pc * b.ld + j0, b.ld, nr};
  pack_sliver_avx2<kNr>(OpView{b.data, b.ld, false}, j0, nr, pc, kc, pack);
  return {pack, kNr, kNr};
}

/// Tile-parallel work of one thread: C += alpha·op(A)·op(B) on the column
/// tiles [jt0, jt1), every row panel and every slab.
__attribute__((target("avx512f"))) inline void columns(
    float alpha, const OpView& a, const OpView& b, float* c, int64_t ldc,
    int64_t m, int64_t n, int64_t k, int64_t jt0, int64_t jt1) {
  if (jt0 >= jt1) return;
  const int64_t kc_max = std::min(k, kKc);
  const int64_t mc_max = std::min((m + kMr - 1) / kMr * kMr, kMc);
  float* apack = thread_buffer<0>(mc_max * kc_max);
  float* bpack = thread_buffer<1>(b.trans ? kNr * kc_max : 0);
  alignas(64) float acc[kTile];
  for (int64_t ic = 0; ic < m; ic += kMc) {
    const int64_t mc = std::min(kMc, m - ic);
    for (int64_t pc = 0; pc < k; pc += kKc) {
      const int64_t kc = std::min(kKc, k - pc);
      for (int64_t ir = 0; ir < mc; ir += kMr) {
        pack_sliver_avx2<kMr>(a, ic + ir, std::min(kMr, mc - ir), pc, kc,
                              apack + ir * kc);
      }
      for (int64_t jt = jt0; jt < jt1; ++jt) {
        const int64_t j0 = jt * kNr;
        const int64_t nr = std::min(kNr, n - j0);
        const BBlock bt = b_block(b, pc, kc, j0, nr, bpack);
        for (int64_t ir = 0; ir < mc; ir += kMr) {
          microkernel_avx512(kc, apack + ir * kc, bt.data, bt.ld, bt.load_nr,
                             acc);
          write_tile(alpha, acc, kNr, c, ldc, ic + ir,
                     std::min(kMr, mc - ir), j0, nr, /*upper_only=*/false);
        }
      }
    }
  }
}

/// Slab-parallel work item: the partial acc tiles of slab [pc, pc + kc)
/// for every column tile of a one-strip output (m ≤ 8), tile jt at
/// partial + jt·kTile.
__attribute__((target("avx512f"))) inline void slab(const OpView& a,
                                                    const OpView& b, int64_t m,
                                                    int64_t n, int64_t pc,
                                                    int64_t kc, float* partial) {
  float* apack = thread_buffer<0>(kMr * kc);
  float* bpack = thread_buffer<1>(b.trans ? kNr * kc : 0);
  pack_sliver_avx2<kMr>(a, 0, m, pc, kc, apack);
  for (int64_t j0 = 0; j0 < n; j0 += kNr) {
    const BBlock bt = b_block(b, pc, kc, j0, std::min(kNr, n - j0), bpack);
    microkernel_avx512(kc, apack, bt.data, bt.ld, bt.load_nr,
                       partial + j0 / kNr * kTile);
  }
}

}  // namespace avx512

/// C(m×n, row-major, leading dimension ldc) += alpha·op(A)·op(B) on 8×32
/// AVX-512 tiles; the caller has checked that the CPU runs AVX-512F.
inline void gemm_avx512(float alpha, const OpView& a, const OpView& b,
                        float* c, int64_t ldc, int64_t m, int64_t n,
                        int64_t k) {
  using namespace avx512;
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;
  const int64_t col_tiles = (n + kNr - 1) / kNr;
  const int64_t slabs = (k + kKc - 1) / kKc;
  const bool par = parallel_kernels_allowed() && m * n * k >= (1 << 15);

  if (m <= kMr && slabs > col_tiles) {
    float* partials = thread_buffer<2>(slabs * col_tiles * kTile);
#pragma omp parallel for schedule(static) if (par)
    for (int64_t s = 0; s < slabs; ++s) {
      slab(a, b, m, n, s * kKc, std::min(kKc, k - s * kKc),
           partials + s * col_tiles * kTile);
    }
    for (int64_t s = 0; s < slabs; ++s) {
      for (int64_t jt = 0; jt < col_tiles; ++jt) {
        write_tile(alpha, partials + (s * col_tiles + jt) * kTile, kNr, c, ldc,
                   0, m, jt * kNr, std::min(kNr, n - jt * kNr),
                   /*upper_only=*/false);
      }
    }
    return;
  }

#pragma omp parallel if (par)
  {
    const int64_t threads = omp_get_num_threads();
    const int64_t per = (col_tiles + threads - 1) / threads;
    const int64_t jt0 = std::min(col_tiles, omp_get_thread_num() * per);
    columns(alpha, a, b, c, ldc, m, n, k, jt0, std::min(col_tiles, jt0 + per));
  }
}
#endif  // DKFAC_MICROKERNEL_AVX2

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

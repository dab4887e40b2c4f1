// The Gram kernel behind fp32 syrk: C += alpha · op(A)·op(A)ᵀ, upper
// triangle only.
//
// Each 256-deep k-slab of op(A) (n × k) is packed once into 16-row, k-major
// slivers — buf[s·16·kc + k·16 + r] = op(A)(16s + r, k0 + k), rows past n
// zero — and that one buffer feeds both operands: a 16×16 tile (s, t) with
// s ≤ t broadcasts from sliver s and multiplies vectors of sliver t. GEMM's
// driver packs the same slab twice (6-row A slivers and 16-column B
// slivers); on the conv factor shapes (n = 8…288, k = 512…8192) packing
// took 12–65% of each call that way.
//
// The arithmetic is GEMM's, element for element: every C_ij is an FMA (or,
// on portable builds, multiply-add) chain over ascending k that starts from
// zero within each slab, and slab partials are added into C as
// `c += alpha * acc` in slab order. So syrk's triangle is bitwise equal to
// the corresponding gemm call on every kernel below and every thread count.
//
// Micro-kernels (picked once, from the CPU, at first use; the same choice
// picks fp32 gemm's tile, see gemm_with below):
//   - kAvx512: one zmm accumulator per tile row. Compiled only when the
//     linalg sources are built with DKFAC_NATIVE_ARCH (as a target-attribute
//     function, so nothing else in the library needs AVX-512) and chosen
//     when the CPU reports avx512f and the OS saves the zmm/opmask state.
//   - kAvx2: sub-tiles of 6, 6 and 4 rows × 16 columns (12, 12 and 8 ymm
//     accumulators) over the same layout; the native-arch kernel on CPUs
//     without AVX-512.
//   - kPortable: plain loops shaped like microkernel_portable, the only
//     kernel of a DKFAC_NATIVE_ARCH=OFF build.
// The two SIMD kernels share one packer (pack_sliver_avx2: 8×8 AVX2
// register transposes for AAᵀ); the portable kernel packs with pack_a.
#pragma once

#include <cstdint>

#include "linalg/blas.hpp"

namespace dkfac::linalg::detail {

enum class GramKernel { kAvx512, kAvx2, kPortable };

inline constexpr GramKernel kGramKernels[] = {
    GramKernel::kAvx512, GramKernel::kAvx2, GramKernel::kPortable};

/// "avx512", "avx2" or "portable".
const char* gram_kernel_name(GramKernel kernel);

/// True when this build contains `kernel` and the CPU can run it.
bool gram_kernel_available(GramKernel kernel);

/// The kernel syrk and fp32 gemm run: the widest available one.
GramKernel gram_kernel_selected();

/// C(n×n, row-major, leading dimension n) += alpha·op(A)·op(A)ᵀ on the
/// elements with col ≥ row. op(A)(i, k) is a[k·lda + i] when `trans`, else
/// a[i·lda + k]. The caller owns the beta pass and the mirror.
void gram_upper(GramKernel kernel, float alpha, const float* a, int64_t lda,
                bool trans, int64_t n, int64_t k, float* c);

/// syrk through a chosen kernel, which must be available: the entry point
/// tests and benches use to run every kernel the CPU supports.
void syrk_with(GramKernel kernel, float alpha, const Tensor& a, Trans trans,
               float beta, Tensor& c);

/// gemm through a chosen kernel, which must be available: kAvx512 runs the
/// 8×32 tile (gemm_avx512 in gemm_driver.hpp), kAvx2 and kPortable the
/// build's 6×16 MicroTile driver. All give the same bits on a given build.
void gemm_with(GramKernel kernel, float alpha, const Tensor& a, Trans trans_a,
               const Tensor& b, Trans trans_b, float beta, Tensor& c);

}  // namespace dkfac::linalg::detail

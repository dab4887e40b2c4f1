// Dense BLAS-like kernels on row-major FP32 matrices.
//
// These are the compute primitives behind factor accumulation (A = aᵀa),
// gradient preconditioning (Eqs 13–15), and the conv/linear layers. GEMM is
// a register-blocked Goto-style kernel (see gemm_driver.hpp,
// microkernel.hpp and pack.hpp). On CPUs with AVX-512F it runs an 8×32
// tile that reads a non-transposed B in place; elsewhere A- and B-panels
// are copied into contiguous transpose-normalized buffers and driven
// through a 6×16 FMA micro-kernel. The tile is picked once from the CPU,
// as syrk's is, and both give the same bits. SYRK computes
// symmetric Gram matrices (the K-FAC factor shape) at ~half the GEMM flops
// by evaluating only the upper triangle and mirroring, through its own
// one-pack Gram kernel (gram.hpp).
//
// Every kernel accumulates each output element in a fixed order, so results
// are bitwise identical regardless of OMP_NUM_THREADS (threads partition
// output elements, never a reduction). Kernels consult
// linalg::parallel_kernels_allowed() and stay serial on threads where a
// parallel region would oversubscribe (nested OMP, AsyncExecutor worker).
#pragma once

#include "tensor/tensor.hpp"

namespace dkfac::linalg {

enum class Trans { kNo, kYes };

/// C = alpha * op(A) @ op(B) + beta * C.
/// All matrices are rank-2 row-major tensors; shapes are checked.
/// BLAS semantics: beta == 0 overwrites C (stale values, including NaN, are
/// never read); alpha == 0 skips the product entirely. For alpha != 0 the
/// product is fully IEEE — zeros in A propagate NaN/Inf from B.
void gemm(float alpha, const Tensor& a, Trans trans_a, const Tensor& b,
          Trans trans_b, float beta, Tensor& c);

/// Returns op(A) @ op(B) as a fresh tensor.
Tensor matmul(const Tensor& a, const Tensor& b, Trans trans_a = Trans::kNo,
              Trans trans_b = Trans::kNo);

/// Symmetric rank-k update, the factor-statistics kernel:
///   trans == kYes:  C = alpha * AᵀA + beta * C   (A is [rows, d], C [d, d])
///   trans == kNo :  C = alpha * AAᵀ + beta * C   (A is [d, cols], C [d, d])
/// Only the upper triangle is computed (~half the GEMM flops); the result is
/// then mirrored so C comes back fully dense and exactly symmetric. The
/// output is bitwise identical to the corresponding gemm call although the
/// kernels differ: both compute every element as an FMA chain over
/// ascending k that starts from zero within each 256-deep k-slab, and add
/// the slab partials into C (`c += alpha * acc`) in slab order. The Gram
/// micro-kernel is picked once from the CPU at run time: AVX-512 when the
/// CPU and OS support avx512f, else AVX2 (both under DKFAC_NATIVE_ARCH),
/// and the portable loops otherwise (see gram.hpp).
/// With beta != 0, C is assumed symmetric: the lower triangle of the output
/// is the mirror of the upper, so an asymmetric C's lower input is ignored.
void syrk(float alpha, const Tensor& a, Trans trans, float beta, Tensor& c);

/// y = alpha * op(A) @ x + beta * y, with x, y rank-1. Row-parallel with
/// SIMD double accumulation; beta == 0 overwrites y without reading it.
void gemv(float alpha, const Tensor& a, Trans trans_a, const Tensor& x,
          float beta, Tensor& y);

/// Returns Aᵀ for a rank-2 tensor (cache-blocked, parallel over blocks).
Tensor transpose(const Tensor& a);

/// A := (A + Aᵀ)/2; requires a square rank-2 tensor. Keeps accumulated
/// Kronecker factors exactly symmetric despite FP32 rounding.
void symmetrize(Tensor& a);

/// A := A + gamma * I (Tikhonov damping, Eq 11); requires square rank-2.
void add_diagonal(Tensor& a, float gamma);

/// Max |A - Aᵀ| over all entries; 0 for exactly symmetric matrices.
float asymmetry(const Tensor& a);

/// Frobenius norm of (A - B).
float frobenius_distance(const Tensor& a, const Tensor& b);

}  // namespace dkfac::linalg

#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "linalg/gemm_driver.hpp"
#include "linalg/threading.hpp"

namespace dkfac::linalg {

namespace {

void check_square(const Tensor& a, const char* who) {
  DKFAC_CHECK(a.ndim() == 2 && a.dim(0) == a.dim(1))
      << who << " needs a square matrix, got " << a.shape();
}

/// Panel width for the blocked right-looking factorization: wide enough
/// that the O(n²·NB) trailing update dominates, small enough that the
/// serial diagonal-block factor stays negligible.
constexpr int64_t kNB = 64;

// Factors `a` into its lower Cholesky triangle in double precision,
// writing L into the lower triangle of `l` (upper left zeroed). Shared by
// the fp32 cholesky() entry point and spd_inverse, which stays in double
// through the triangular inversion.
void cholesky_f64(const Tensor& a, std::vector<double>& l) {
  const int64_t n = a.dim(0);
  // Factor in double: K-FAC covariance factors can have condition numbers
  // near 1/γ, where FP32 pivots lose positivity. Blocked right-looking
  // algorithm: factor a kNB-wide diagonal block, triangular-solve the panel
  // below it, then apply the panel's rank-kNB (SYRK-shaped) update to the
  // trailing submatrix. The trailing update is the O(n³) term and is
  // parallel over rows — each element is updated by one thread with a fixed
  // ascending-k inner order, so the factor is invariant to the thread count.
  l.assign(static_cast<size_t>(n * n), 0.0);
  std::vector<double> upd;  // scratch for the panel's syrk-shaped update
  auto L = [&](int64_t i, int64_t j) -> double& { return l[i * n + j]; };
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j <= i; ++j) L(i, j) = a.at(i, j);
  }
  const bool par = parallel_kernels_allowed() && n >= 128;

  for (int64_t j0 = 0; j0 < n; j0 += kNB) {
    const int64_t jb = std::min(kNB, n - j0);
    const int64_t jend = j0 + jb;

    // 1. Unblocked factor of the diagonal block (prior panels' updates have
    //    already been folded in by earlier trailing updates). Serial — the
    //    positivity check must throw from outside any parallel region.
    for (int64_t j = j0; j < jend; ++j) {
      double diag = L(j, j);
      for (int64_t k = j0; k < j; ++k) diag -= L(j, k) * L(j, k);
      DKFAC_CHECK(diag > 0.0) << "matrix not positive definite at pivot " << j
                              << " (value " << diag << ")";
      const double ljj = std::sqrt(diag);
      L(j, j) = ljj;
      for (int64_t i = j + 1; i < jend; ++i) {
        double v = L(i, j);
        for (int64_t k = j0; k < j; ++k) v -= L(i, k) * L(j, k);
        L(i, j) = v / ljj;
      }
    }

    // 2. Panel solve: rows below the block against the block's transpose.
#pragma omp parallel for schedule(static) if (par)
    for (int64_t i = jend; i < n; ++i) {
      for (int64_t j = j0; j < jend; ++j) {
        double v = L(i, j);
        for (int64_t k = j0; k < j; ++k) v -= L(i, k) * L(j, k);
        L(i, j) = v / L(j, j);
      }
    }

    // 3. Trailing update (lower triangle only): A[i, j] -= Σ_k L(i,k)·L(j,k)
    //    over this panel's k — the syrk-shaped O(n²·NB) bulk of the
    //    factorization, routed through the packed gemm driver. The driver
    //    emits the upper triangle of P·Pᵀ into scratch; the subtraction
    //    mirrors it onto the lower-triangle storage (one writer per
    //    element, so the factor stays thread-count invariant).
    const int64_t mt = n - jend;
    if (mt > 0) {
      upd.assign(static_cast<size_t>(mt * mt), 0.0);
      const detail::OpViewT<double> p{&l[static_cast<size_t>(jend * n + j0)],
                                      n, false};
      const detail::OpViewT<double> pt{&l[static_cast<size_t>(jend * n + j0)],
                                       n, true};
      detail::gemm_driver<double>(1.0, p, pt, upd.data(), mt, mt, mt, jb,
                                  /*upper_only=*/true);
#pragma omp parallel for schedule(static) if (par)
      for (int64_t i = 0; i < mt; ++i) {
        double* lrow = &l[static_cast<size_t>((jend + i) * n + jend)];
        for (int64_t j = 0; j <= i; ++j) {
          lrow[j] -= upd[static_cast<size_t>(j * mt + i)];
        }
      }
    }
  }
}

}  // namespace

Tensor cholesky(const Tensor& a) {
  check_square(a, "cholesky");
  const int64_t n = a.dim(0);
  std::vector<double> l;
  cholesky_f64(a, l);
  Tensor out(Shape{n, n});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      out.at(i, j) = static_cast<float>(l[i * n + j]);
    }
  }
  return out;
}

Tensor spd_inverse(const Tensor& a) {
  check_square(a, "spd_inverse");
  const int64_t n = a.dim(0);
  // A⁻¹ = L⁻ᵀ·L⁻¹ entirely in double: blocked Cholesky, blocked in-place
  // triangular inversion X = L⁻¹, then the lauum-shaped product XᵀX
  // through the packed gemm driver. Symmetric by construction (the product
  // pass only forms the upper block triangle and mirrors), and bitwise
  // invariant to the thread count because every gemm rides the
  // deterministic driver and the scalar passes are serial.
  std::vector<double> x;
  cholesky_f64(a, x);
  const int64_t nblk = (n + kNB - 1) / kNB;

  // Pass 1: invert every diagonal block in place (dtrti2 shape). Reads of
  // original L entries all happen before the overwriting visit: column j
  // of X is built top-down, and rows only consume L columns not yet
  // reached by the j loop.
  for (int64_t j0 = 0; j0 < n; j0 += kNB) {
    const int64_t jend = std::min(j0 + kNB, n);
    for (int64_t j = j0; j < jend; ++j) {
      x[j * n + j] = 1.0 / x[j * n + j];
      for (int64_t i = j + 1; i < jend; ++i) {
        double s = 0.0;
        for (int64_t k = j; k < i; ++k) s += x[i * n + k] * x[k * n + j];
        x[i * n + j] = -s / x[i * n + i];
      }
    }
  }

  // Pass 2: off-diagonal blocks from X·L = I, i.e.
  // X[I,J] = −(Σ_{J<K≤I} X[I,K]·L[K,J])·X[J,J]. Block columns descending
  // and block rows descending so every X[I,K] read is already inverted
  // while every L[K,J] read is still the untouched factor.
  std::vector<double> tmp(static_cast<size_t>(kNB * kNB));
  for (int64_t bj = nblk - 2; bj >= 0; --bj) {
    const int64_t j0 = bj * kNB;
    const int64_t j1 = std::min(j0 + kNB, n);
    const int64_t jb = j1 - j0;
    for (int64_t bi = nblk - 1; bi > bj; --bi) {
      const int64_t i0 = bi * kNB;
      const int64_t i1 = std::min(i0 + kNB, n);
      const int64_t ib = i1 - i0;
      std::fill(tmp.begin(), tmp.begin() + ib * jb, 0.0);
      detail::gemm_accum<double>(1.0, &x[i0 * n + j1], n, false,
                                 &x[j1 * n + j0], n, false, tmp.data(), jb,
                                 ib, jb, i1 - j1);
      for (int64_t i = i0; i < i1; ++i) {
        std::fill(x.begin() + i * n + j0, x.begin() + i * n + j1, 0.0);
      }
      detail::gemm_accum<double>(-1.0, tmp.data(), jb, false,
                                 &x[j0 * n + j0], n, false, &x[i0 * n + j0],
                                 n, ib, jb, jb);
    }
  }

  // Pass 3: A⁻¹ = XᵀX, upper block triangle only — block (I,J) with I≤J
  // needs rows k ≥ j0 of X because X(k,·) vanishes above the diagonal, so
  // each block product keeps the triangular flop count.
  std::vector<double> c(static_cast<size_t>(n * n), 0.0);
  for (int64_t bj = 0; bj < nblk; ++bj) {
    const int64_t j0 = bj * kNB;
    const int64_t j1 = std::min(j0 + kNB, n);
    const int64_t jb = j1 - j0;
    for (int64_t bi = 0; bi <= bj; ++bi) {
      const int64_t i0 = bi * kNB;
      const int64_t ib = std::min(i0 + kNB, n) - i0;
      detail::gemm_accum<double>(1.0, &x[j0 * n + i0], n, true,
                                 &x[j0 * n + j0], n, false, &c[i0 * n + j0],
                                 n, ib, jb, n - j0);
    }
  }

  Tensor inv(Shape{n, n});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i; j < n; ++j) {
      const float v = static_cast<float>(c[i * n + j]);
      inv.at(i, j) = v;
      inv.at(j, i) = v;
    }
  }
  return inv;
}

}  // namespace dkfac::linalg

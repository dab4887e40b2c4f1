// Cholesky factorisation and SPD inverse.
//
// This is the *explicit inverse* path of the paper's §IV-A comparison
// (Table I): (A + γI)⁻¹ computed directly, as opposed to the implicit
// eigendecomposition path. The paper shows this path degrades validation
// accuracy at large batch sizes; we keep it to reproduce that comparison.
#pragma once

#include "tensor/tensor.hpp"

namespace dkfac::linalg {

/// Lower-triangular L with A = L·Lᵀ. Throws dkfac::Error when `a` is not
/// positive definite (non-positive pivot).
Tensor cholesky(const Tensor& a);

/// Inverse of an SPD matrix via Cholesky: A⁻¹ = L⁻ᵀ·L⁻¹.
Tensor spd_inverse(const Tensor& a);

}  // namespace dkfac::linalg

// Property tests for the packed micro-kernel linalg rewrite: gemm/syrk vs a
// naive double-precision reference across all four transpose combinations
// and awkward (odd/prime) sizes, alpha/beta edge cases, IEEE NaN/Inf
// propagation (the legacy `aval == 0 → skip` fast-path regression), bitwise
// syrk ≡ gemm agreement, and bitwise invariance of every kernel to
// OMP_NUM_THREADS. This TU is compiled WITHOUT the native-arch flags, so
// including microkernel.hpp/pack.hpp here also exercises the portable
// fallback micro-kernel in CI even when the library itself uses AVX2.
#include <omp.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen.hpp"
#include "linalg/gram.hpp"
#include "linalg/microkernel.hpp"
#include "linalg/pack.hpp"
#include "linalg/threading.hpp"
#include "tensor/random.hpp"

namespace dkfac::linalg {
namespace {

// ---- reference implementations -------------------------------------------

float op_at(const Tensor& t, Trans trans, int64_t i, int64_t j) {
  return trans == Trans::kNo ? t.at(i, j) : t.at(j, i);
}

/// Naive triple loop in double; `c` must already hold the beta·C term.
Tensor reference_gemm(float alpha, const Tensor& a, Trans trans_a,
                      const Tensor& b, Trans trans_b, float beta,
                      const Tensor& c_in) {
  const int64_t m = trans_a == Trans::kNo ? a.dim(0) : a.dim(1);
  const int64_t k = trans_a == Trans::kNo ? a.dim(1) : a.dim(0);
  const int64_t n = trans_b == Trans::kNo ? b.dim(1) : b.dim(0);
  Tensor c(Shape{m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(op_at(a, trans_a, i, kk)) *
               op_at(b, trans_b, kk, j);
      }
      const double base = beta == 0.0f ? 0.0 : beta * static_cast<double>(c_in.at(i, j));
      c.at(i, j) = static_cast<float>(alpha * acc + base);
    }
  }
  return c;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Relative tolerance scaled by the reduction depth: the packed kernel
/// accumulates in fp32 (blocked order), the reference in double.
void expect_close(const Tensor& got, const Tensor& want, int64_t k) {
  ASSERT_EQ(got.shape(), want.shape());
  const float tol = 1e-5f * static_cast<float>(std::max<int64_t>(k, 1));
  for (int64_t i = 0; i < got.numel(); ++i) {
    const float scale = std::max(1.0f, std::abs(want[i]));
    ASSERT_NEAR(got[i], want[i], tol * scale) << "element " << i;
  }
}

/// Runs `fn` under OMP_NUM_THREADS = t for each t, asserting the outputs
/// are bitwise identical to the single-thread run.
template <typename Fn>
void expect_thread_invariant(Fn&& fn, const char* what) {
  const int original = omp_get_max_threads();
  omp_set_num_threads(1);
  const Tensor baseline = fn();
  for (int threads : {2, 8}) {
    omp_set_num_threads(threads);
    const Tensor run = fn();
    EXPECT_TRUE(bitwise_equal(run, baseline))
        << what << " differs between 1 and " << threads << " threads";
  }
  omp_set_num_threads(original);
}

// ---- gemm vs reference ----------------------------------------------------

struct GemmCase {
  int64_t m, k, n;
};

class GemmAllTrans : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmAllTrans, MatchesNaiveReferenceForAllTransCombos) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 10007 + k * 101 + n));
  for (Trans ta : {Trans::kNo, Trans::kYes}) {
    for (Trans tb : {Trans::kNo, Trans::kYes}) {
      const Tensor a = ta == Trans::kNo ? Tensor::randn(Shape{m, k}, rng)
                                        : Tensor::randn(Shape{k, m}, rng);
      const Tensor b = tb == Trans::kNo ? Tensor::randn(Shape{k, n}, rng)
                                        : Tensor::randn(Shape{n, k}, rng);
      for (const auto [alpha, beta] :
           {std::pair{1.0f, 0.0f}, {1.0f, 1.0f}, {-1.0f, 0.5f}, {0.5f, -1.0f},
            {0.0f, 0.5f}}) {
        Tensor c = Tensor::randn(Shape{m, n}, rng);
        const Tensor want = reference_gemm(alpha, a, ta, b, tb, beta, c);
        gemm(alpha, a, ta, b, tb, beta, c);
        expect_close(c, want, k);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OddPrimeSizes, GemmAllTrans,
    ::testing::Values(GemmCase{1, 1, 1}, GemmCase{2, 3, 5}, GemmCase{7, 1, 13},
                      GemmCase{6, 16, 17},   // exactly one micro-tile + 1
                      GemmCase{17, 31, 19},  // primes straddling kMR/kNR
                      GemmCase{97, 113, 89},
                      GemmCase{64, 300, 1},  // gemv-shaped degenerate n
                      GemmCase{1, 257, 33},  // k crosses the KC=256 boundary
                      GemmCase{130, 270, 110}));

TEST(GemmEdges, BetaZeroOverwritesStaleNaN) {
  // BLAS rule: beta == 0 must not read C — stale NaN may never leak through.
  Tensor a(Shape{2, 2}, {1, 2, 3, 4});
  Tensor b(Shape{2, 2}, {5, 6, 7, 8});
  Tensor c(Shape{2, 2});
  c.fill_(std::numeric_limits<float>::quiet_NaN());
  gemm(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, c);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FALSE(std::isnan(c[i]));
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
}

TEST(GemmEdges, AlphaZeroSkipsProductEntirely) {
  // alpha == 0: A and B are not referenced (BLAS), even if they hold NaN.
  Tensor a(Shape{2, 2});
  a.fill_(std::numeric_limits<float>::quiet_NaN());
  Tensor b = a;
  Tensor c(Shape{2, 2}, {1, 2, 3, 4});
  gemm(0.0f, a, Trans::kNo, b, Trans::kNo, 0.5f, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 2.0f);
}

// Regression for the legacy `if (aval == 0.0f) continue;` fast-path, which
// silently dropped NaN/Inf propagation from B wherever A held a zero.
TEST(GemmEdges, ZeroTimesNaNPropagates) {
  Tensor a = Tensor::zeros(Shape{3, 3});
  Tensor b(Shape{3, 3});
  b.fill_(std::numeric_limits<float>::quiet_NaN());
  Tensor c(Shape{3, 3});
  gemm(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, c);
  for (int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_TRUE(std::isnan(c[i])) << "0·NaN must be NaN, element " << i;
  }
}

TEST(GemmEdges, ZeroTimesInfPropagatesAsNaN) {
  // One zero row in A against an Inf column in B: 0·Inf = NaN by IEEE.
  Tensor a(Shape{2, 2}, {0, 0, 1, 1});
  Tensor b(Shape{2, 2}, {std::numeric_limits<float>::infinity(), 1, 2, 3});
  Tensor c(Shape{2, 2});
  gemm(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, c);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));
  EXPECT_TRUE(std::isinf(c.at(1, 0)));
  EXPECT_FLOAT_EQ(c.at(0, 1), 0.0f);
}

// ---- syrk -----------------------------------------------------------------

TEST(Syrk, BitwiseMatchesGemmTransposedGram) {
  // syrk(αAᵀA) must equal gemm(α, Aᵀ, A) bit for bit: same packing, same
  // blocking, same per-element accumulation order, and the mirrored lower
  // triangle matches because fp multiply/FMA commute bitwise.
  for (auto [rows, d] : {std::pair<int64_t, int64_t>{5, 3},
                         {64, 17}, {300, 33}, {257, 96}}) {
    Rng rng(static_cast<uint64_t>(rows * 131 + d));
    Tensor a = Tensor::randn(Shape{rows, d}, rng);
    Tensor via_gemm(Shape{d, d});
    gemm(1.0f / rows, a, Trans::kYes, a, Trans::kNo, 0.0f, via_gemm);
    Tensor via_syrk(Shape{d, d});
    syrk(1.0f / rows, a, Trans::kYes, 0.0f, via_syrk);
    EXPECT_TRUE(bitwise_equal(via_syrk, via_gemm))
        << "syrk != gemm for [" << rows << ", " << d << "]";
  }
}

/// The Gram table: d on both sides of the 16-row sliver edge and up to the
/// conv A-factor widths, k on both sides of the 256-deep slab edge and up to
/// the conv factor depths (N·OH·OW), both orientations, beta 0 and 0.5 (on
/// a symmetric C), 1 and 3 OMP threads. Each `run_syrk` result must equal
/// gemm's bit for bit, mirrored lower triangle included.
template <typename SyrkFn>
void expect_gram_table_matches_gemm(SyrkFn&& run_syrk) {
  const int original = omp_get_max_threads();
  for (int64_t d : {1, 8, 16, 17, 27, 31, 33, 72, 144, 288}) {
    for (int64_t k : {255, 256, 257, 2048, 8192}) {
      Rng rng(static_cast<uint64_t>(d * 7 + k));
      Tensor c0 = Tensor::randn(Shape{d, d}, rng);
      symmetrize(c0);
      for (Trans trans : {Trans::kNo, Trans::kYes}) {
        const Tensor a = trans == Trans::kNo ? Tensor::randn(Shape{d, k}, rng)
                                             : Tensor::randn(Shape{k, d}, rng);
        const Trans other = trans == Trans::kNo ? Trans::kYes : Trans::kNo;
        const float alpha = 1.0f / static_cast<float>(k);
        for (float beta : {0.0f, 0.5f}) {
          // gemm is thread-count invariant (ThreadInvariance.*): one
          // serial reference serves both syrk thread counts.
          omp_set_num_threads(1);
          Tensor via_gemm = c0;
          gemm(alpha, a, trans, a, other, beta, via_gemm);
          for (int threads : {1, 3}) {
            omp_set_num_threads(threads);
            Tensor via_syrk = c0;
            run_syrk(alpha, a, trans, beta, via_syrk);
            EXPECT_TRUE(bitwise_equal(via_syrk, via_gemm))
                << "d=" << d << " k=" << k
                << (trans == Trans::kNo ? " AAᵀ" : " AᵀA") << " beta=" << beta
                << " threads=" << threads;
          }
          omp_set_num_threads(original);
        }
      }
    }
  }
}

TEST(Syrk, BitwiseMatchesGemmNoTransGram) {
  // The AAᵀ orientation every conv factor takes, and Linear's AᵀA, through
  // the public syrk (the kernel the CPU selected).
  expect_gram_table_matches_gemm(
      [](float alpha, const Tensor& a, Trans trans, float beta, Tensor& c) {
        syrk(alpha, a, trans, beta, c);
      });
}

// Every Gram micro-kernel against gemm, the selected one and the others
// this build and CPU can run; an AVX-512 machine checks its AVX2 kernel too.
class GramKernelTest : public ::testing::TestWithParam<detail::GramKernel> {};

TEST_P(GramKernelTest, BitwiseMatchesGemm) {
  const detail::GramKernel kernel = GetParam();
  if (!detail::gram_kernel_available(kernel)) {
    GTEST_SKIP() << "Gram kernel " << detail::gram_kernel_name(kernel)
                 << ": not in this build or not supported by this CPU";
  }
  expect_gram_table_matches_gemm(
      [kernel](float alpha, const Tensor& a, Trans trans, float beta,
               Tensor& c) { detail::syrk_with(kernel, alpha, a, trans, beta, c); });
}

INSTANTIATE_TEST_SUITE_P(
    Syrk, GramKernelTest, ::testing::ValuesIn(detail::kGramKernels),
    [](const ::testing::TestParamInfo<detail::GramKernel>& info) {
      return std::string(detail::gram_kernel_name(info.param));
    });

// Every fp32 gemm kernel against the AVX2 kernel, bit for bit: the AVX-512
// 8×32 tile reads a plain op(B) in place with masked edge loads, packs a
// transposed one, and on one-strip outputs with more slabs than column
// tiles computes slab partials in parallel. The table crosses M (both
// sides of the 8-row strip and the 96-row panel), N (both sides of the
// 16- and 32-column edges) and K (both sides of the 256-deep slab, up to
// the weight gradient's 8192), skipping products above 2^23
// multiply-adds, plus the six ResNet-8 conv products. Every shape runs all
// four transpose combinations, each with one of GemmAllTrans's α/β pairs
// in rotation, on 1, 2 and 8 threads; then NaN and Inf in B meet zeros in
// A. A build without the AVX2 kernel compares its portable kernel with
// itself on one thread, which still checks thread invariance.
class GemmKernelTest : public ::testing::TestWithParam<detail::GramKernel> {};

detail::GramKernel gemm_reference_kernel() {
  return detail::gram_kernel_available(detail::GramKernel::kAvx2)
             ? detail::GramKernel::kAvx2
             : detail::gram_kernel_selected();
}

/// gemm_with(kernel) on 1, 2 and 8 threads must equal the reference
/// kernel's single-thread result bit for bit.
void expect_gemm_kernel_matches(detail::GramKernel kernel, float alpha,
                                const Tensor& a, Trans ta, const Tensor& b,
                                Trans tb, float beta, const Tensor& c0,
                                const std::string& what) {
  const int original = omp_get_max_threads();
  omp_set_num_threads(1);
  Tensor want = c0;
  detail::gemm_with(gemm_reference_kernel(), alpha, a, ta, b, tb, beta, want);
  for (int threads : {1, 2, 8}) {
    omp_set_num_threads(threads);
    Tensor got = c0;
    detail::gemm_with(kernel, alpha, a, ta, b, tb, beta, got);
    EXPECT_TRUE(bitwise_equal(got, want)) << what << " threads=" << threads;
  }
  omp_set_num_threads(original);
}

/// op(X) is rows × cols; uniform values are as rounding-sensitive as
/// normal ones for a bitwise check, and cheaper to draw.
Tensor operand(int64_t rows, int64_t cols, Trans trans, Rng& rng) {
  return trans == Trans::kNo ? Tensor::rand(Shape{rows, cols}, rng, -1.0f, 1.0f)
                             : Tensor::rand(Shape{cols, rows}, rng, -1.0f, 1.0f);
}

std::string gemm_case_name(int64_t m, int64_t n, int64_t k, Trans ta,
                           Trans tb) {
  return "m=" + std::to_string(m) + " n=" + std::to_string(n) +
         " k=" + std::to_string(k) + (ta == Trans::kNo ? " N" : " T") +
         (tb == Trans::kNo ? "N" : "T");
}

/// Zeros in A against NaN and Inf in B, in the last row and column too:
/// 0·NaN and 0·Inf must give the reference kernel's NaN bits, and real
/// NaN must reach C.
void expect_gemm_nonfinite_matches(detail::GramKernel kernel, int64_t m,
                                   int64_t n, int64_t k) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(static_cast<uint64_t>(m * 31 + n * 7 + k));
  for (Trans ta : {Trans::kNo, Trans::kYes}) {
    for (Trans tb : {Trans::kNo, Trans::kYes}) {
      Tensor a = operand(m, k, ta, rng);
      Tensor b = operand(k, n, tb, rng);
      for (int64_t i = 0; i < a.numel(); i += 3) a[i] = 0.0f;
      for (int64_t i = 0; i < b.numel(); i += 97) b[i] = i % 2 ? nan : inf;
      b[b.numel() - 1] = nan;
      b[0] = -inf;
      const Tensor c0 = Tensor::randn(Shape{m, n}, rng);
      const std::string what = "non-finite " + gemm_case_name(m, n, k, ta, tb);
      expect_gemm_kernel_matches(kernel, 1.0f, a, ta, b, tb, 0.0f, c0, what);
      Tensor c = c0;
      detail::gemm_with(kernel, 1.0f, a, ta, b, tb, 0.0f, c);
      int64_t nans = 0;
      for (int64_t i = 0; i < c.numel(); ++i) nans += std::isnan(c[i]) ? 1 : 0;
      EXPECT_GT(nans, 0) << what;
    }
  }
}

TEST_P(GemmKernelTest, BitwiseMatchesAvx2) {
  const detail::GramKernel kernel = GetParam();
  if (!detail::gram_kernel_available(kernel)) {
    GTEST_SKIP() << "gemm kernel " << detail::gram_kernel_name(kernel)
                 << ": not in this build or not supported by this CPU";
  }
  struct Shape3 {
    int64_t m, n, k;
  };
  std::vector<Shape3> shapes;
  for (int64_t m : {1, 7, 8, 10, 16, 27, 32, 72, 144, 288}) {
    for (int64_t n : {1, 15, 16, 17, 31, 33, 512, 2053}) {
      for (int64_t k : {1, 8, 255, 256, 257, 8192}) {
        if (m * n * k <= (int64_t{1} << 23)) shapes.push_back({m, n, k});
      }
    }
  }
  // Forward W·patches, weight gradient grad·patchesᵀ and input gradient
  // Wᵀ·grad of the stage-1 and stage-3 3×3 convs.
  for (const Shape3 conv : {Shape3{8, 8192, 72}, Shape3{8, 72, 8192},
                            Shape3{72, 8192, 8}, Shape3{32, 512, 288},
                            Shape3{32, 288, 512}, Shape3{288, 512, 32}}) {
    shapes.push_back(conv);
  }
  const std::pair<float, float> alpha_beta[] = {
      {1.0f, 0.0f}, {1.0f, 1.0f}, {-1.0f, 0.5f}, {0.5f, -1.0f}, {0.0f, 0.5f}};
  size_t rotation = 0;
  for (const auto [m, n, k] : shapes) {
    Rng rng(static_cast<uint64_t>(m * 1000003 + n * 1009 + k));
    for (Trans ta : {Trans::kNo, Trans::kYes}) {
      for (Trans tb : {Trans::kNo, Trans::kYes}) {
        const Tensor a = operand(m, k, ta, rng);
        const Tensor b = operand(k, n, tb, rng);
        const Tensor c0 = Tensor::rand(Shape{m, n}, rng, -1.0f, 1.0f);
        const auto [alpha, beta] = alpha_beta[rotation++ % 5];
        expect_gemm_kernel_matches(kernel, alpha, a, ta, b, tb, beta, c0,
                                   gemm_case_name(m, n, k, ta, tb));
      }
    }
  }
  // The in-place, packed, edge-masked and slab-parallel paths.
  for (const auto [m, n, k] :
       {std::tuple<int64_t, int64_t, int64_t>{8, 72, 8192}, {10, 33, 257},
        {27, 2053, 8}, {1, 17, 256}, {7, 31, 600}}) {
    expect_gemm_nonfinite_matches(kernel, m, n, k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Gemm, GemmKernelTest, ::testing::ValuesIn(detail::kGramKernels),
    [](const ::testing::TestParamInfo<detail::GramKernel>& info) {
      return std::string(detail::gram_kernel_name(info.param));
    });

TEST(Syrk, OutputIsExactlySymmetric) {
  Rng rng(42);
  Tensor a = Tensor::randn(Shape{111, 37}, rng);
  Tensor c(Shape{37, 37});
  syrk(1.0f, a, Trans::kYes, 0.0f, c);
  EXPECT_EQ(asymmetry(c), 0.0f);
}

TEST(Syrk, AlphaBetaEdgeCases) {
  Rng rng(43);
  Tensor a = Tensor::randn(Shape{29, 11}, rng);
  // Symmetric C so the documented beta convention (lower = mirror of upper)
  // agrees with plain elementwise beta·C.
  Tensor m = Tensor::randn(Shape{11, 11}, rng);
  Tensor c0(Shape{11, 11});
  syrk(1.0f, m, Trans::kYes, 0.0f, c0);  // SPD-ish symmetric base

  for (const auto [alpha, beta] :
       {std::pair{1.0f, 1.0f}, {-1.0f, 0.5f}, {0.0f, -1.0f}, {0.5f, 0.0f}}) {
    Tensor c = c0;
    const Tensor want = reference_gemm(alpha, a, Trans::kYes, a, Trans::kNo,
                                       beta, c0);
    syrk(alpha, a, Trans::kYes, beta, c);
    expect_close(c, want, a.dim(0));
    EXPECT_EQ(asymmetry(c), 0.0f);
  }
}

TEST(Syrk, BetaZeroOverwritesStaleNaN) {
  Rng rng(44);
  Tensor a = Tensor::randn(Shape{13, 7}, rng);
  Tensor c(Shape{7, 7});
  c.fill_(std::numeric_limits<float>::quiet_NaN());
  syrk(1.0f, a, Trans::kYes, 0.0f, c);
  for (int64_t i = 0; i < c.numel(); ++i) EXPECT_FALSE(std::isnan(c[i]));
}

TEST(Syrk, ShapeMismatchThrows) {
  Tensor a(Shape{5, 3});
  Tensor bad(Shape{5, 5});
  EXPECT_THROW(syrk(1.0f, a, Trans::kYes, 0.0f, bad), Error);  // wants 3×3
  Tensor good(Shape{3, 3});
  EXPECT_NO_THROW(syrk(1.0f, a, Trans::kYes, 0.0f, good));
  EXPECT_THROW(syrk(1.0f, a, Trans::kNo, 0.0f, good), Error);  // wants 5×5
}

// ---- gemv / transpose -----------------------------------------------------

TEST(GemvKernel, MatchesReferenceBothOrientations) {
  Rng rng(45);
  for (auto [m, k] : {std::pair<int64_t, int64_t>{3, 5}, {97, 113}, {300, 41}}) {
    Tensor a = Tensor::randn(Shape{m, k}, rng);
    Tensor x = Tensor::randn(Shape{k}, rng);
    Tensor xt = Tensor::randn(Shape{m}, rng);
    Tensor y = Tensor::randn(Shape{m}, rng);
    Tensor yt = Tensor::randn(Shape{k}, rng);
    const Tensor y0 = y;
    const Tensor yt0 = yt;

    gemv(2.0f, a, Trans::kNo, x, 0.5f, y);
    gemv(-1.0f, a, Trans::kYes, xt, 1.0f, yt);
    for (int64_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (int64_t j = 0; j < k; ++j) acc += static_cast<double>(a.at(i, j)) * x[j];
      EXPECT_NEAR(y[i], 2.0f * acc + 0.5f * y0[i], 1e-4 * (1.0 + std::abs(acc)));
    }
    for (int64_t j = 0; j < k; ++j) {
      double acc = 0.0;
      for (int64_t i = 0; i < m; ++i) acc += static_cast<double>(a.at(i, j)) * xt[i];
      EXPECT_NEAR(yt[j], -acc + yt0[j], 1e-4 * (1.0 + std::abs(acc)));
    }
  }
}

TEST(GemvKernel, BetaZeroOverwritesStaleNaN) {
  Rng rng(46);
  Tensor a = Tensor::randn(Shape{4, 3}, rng);
  Tensor x = Tensor::randn(Shape{3}, rng);
  Tensor y(Shape{4});
  y.fill_(std::numeric_limits<float>::quiet_NaN());
  gemv(1.0f, a, Trans::kNo, x, 0.0f, y);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FALSE(std::isnan(y[i]));
  Tensor yt(Shape{3});
  yt.fill_(std::numeric_limits<float>::quiet_NaN());
  gemv(1.0f, a, Trans::kYes, Tensor::randn(Shape{4}, rng), 0.0f, yt);
  for (int64_t i = 0; i < 3; ++i) EXPECT_FALSE(std::isnan(yt[i]));
}

// ---- portable micro-kernel (fallback path in CI) --------------------------

TEST(PortableMicrokernel, PackAndAccumulateMatchReference) {
  // This TU is normally built without -mavx2/-mfma, so detail::microkernel
  // here IS the portable fallback — packing + accumulation are validated
  // against a naive dot product even when the library runs the AVX2
  // instance. Global flags (e.g. CMAKE_CXX_FLAGS=-march=native) can make
  // this TU compile the AVX2 kernel instead; then there is no portable
  // instance in the build to test.
  if (detail::microkernel_is_avx2()) {
    GTEST_SKIP() << "test TU compiled with AVX2 — portable path not present";
  }
  using detail::kMR;
  using detail::kNR;
  const int64_t m = 5, n = 13, k = 37;  // partial tiles in both directions
  Rng rng(47);
  Tensor a = Tensor::randn(Shape{k, m}, rng);  // packed as op(A) = Aᵀ
  Tensor b = Tensor::randn(Shape{k, n}, rng);

  const detail::OpView av{a.data(), a.dim(1), /*trans=*/true};
  const detail::OpView bv{b.data(), b.dim(1), /*trans=*/false};
  std::vector<float> apack(static_cast<size_t>(kMR * k));
  std::vector<float> bpack(static_cast<size_t>(kNR * k));
  detail::pack_a(av, 0, m, 0, k, apack.data());
  detail::pack_b(bv, 0, k, 0, n, bpack.data());

  float acc[kMR * kNR] = {};
  detail::microkernel(k, apack.data(), bpack.data(), acc);

  for (int64_t r = 0; r < m; ++r) {
    for (int64_t c = 0; c < n; ++c) {
      double want = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        want += static_cast<double>(a.at(kk, r)) * b.at(kk, c);
      }
      EXPECT_NEAR(acc[r * kNR + c], want, 1e-4 * (1.0 + std::abs(want)));
    }
  }
  // Padded rows/columns must stay exactly zero (0·0 contributions only).
  for (int64_t r = m; r < kMR; ++r) {
    for (int64_t c = 0; c < kNR; ++c) EXPECT_EQ(acc[r * kNR + c], 0.0f);
  }
  for (int64_t r = 0; r < kMR; ++r) {
    for (int64_t c = n; c < kNR; ++c) EXPECT_EQ(acc[r * kNR + c], 0.0f);
  }
}

// ---- bitwise determinism across thread counts -----------------------------

TEST(ThreadInvariance, GemmAllTransCombos) {
  Rng rng(48);
  const Tensor a = Tensor::randn(Shape{130, 97}, rng);
  const Tensor b = Tensor::randn(Shape{97, 110}, rng);
  const Tensor at = transpose(a);
  const Tensor bt = transpose(b);
  expect_thread_invariant([&] { return matmul(a, b); }, "gemm NN");
  expect_thread_invariant([&] { return matmul(at, b, Trans::kYes, Trans::kNo); },
                          "gemm TN");
  expect_thread_invariant([&] { return matmul(a, bt, Trans::kNo, Trans::kYes); },
                          "gemm NT");
  expect_thread_invariant(
      [&] { return matmul(at, bt, Trans::kYes, Trans::kYes); }, "gemm TT");
}

TEST(ThreadInvariance, SyrkGemvTranspose) {
  Rng rng(49);
  const Tensor a = Tensor::randn(Shape{301, 65}, rng);
  const Tensor x = Tensor::randn(Shape{65}, rng);
  const Tensor xt = Tensor::randn(Shape{301}, rng);
  expect_thread_invariant(
      [&] {
        Tensor c(Shape{65, 65});
        syrk(1.0f / 301, a, Trans::kYes, 0.0f, c);
        return c;
      },
      "syrk");
  expect_thread_invariant(
      [&] {
        Tensor y(Shape{301});
        gemv(1.0f, a, Trans::kNo, x, 0.0f, y);
        return y;
      },
      "gemv N");
  expect_thread_invariant(
      [&] {
        Tensor y(Shape{65});
        gemv(1.0f, a, Trans::kYes, xt, 0.0f, y);
        return y;
      },
      "gemv T");
  expect_thread_invariant([&] { return transpose(a); }, "transpose");
}

TEST(ThreadInvariance, CholeskyAndSolves) {
  Rng rng(50);
  const int64_t n = 160;  // above the kernels' parallel thresholds
  Tensor m = Tensor::randn(Shape{n, n}, rng);
  Tensor spd(Shape{n, n});
  syrk(1.0f, m, Trans::kYes, 0.0f, spd);
  add_diagonal(spd, 0.5f);
  expect_thread_invariant([&] { return cholesky(spd); }, "cholesky");
  expect_thread_invariant([&] { return spd_inverse(spd); }, "spd_inverse");
}

TEST(ThreadInvariance, SymmetricEigensolve) {
  Rng rng(51);
  const int64_t n = 200;  // engages tred2 and tql2 parallel paths
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  symmetrize(a);
  expect_thread_invariant(
      [&] {
        SymEig e = sym_eig(a);
        Tensor packed(Shape{n + n * n});
        std::memcpy(packed.data(), e.values.data(),
                    static_cast<size_t>(n) * sizeof(float));
        std::memcpy(packed.data() + n, e.vectors.data(),
                    static_cast<size_t>(n * n) * sizeof(float));
        return packed;
      },
      "sym_eig");
}

TEST(ThreadInvariance, SerialKernelScopeMatchesParallel) {
  // The AsyncExecutor worker runs kernels under SerialKernelScope; results
  // must be bitwise identical to the parallel path.
  Rng rng(52);
  const Tensor a = Tensor::randn(Shape{140, 90}, rng);
  const Tensor b = Tensor::randn(Shape{90, 120}, rng);
  const Tensor parallel = matmul(a, b);
  ASSERT_TRUE(parallel_kernels_allowed());
  {
    SerialKernelScope scope;
    EXPECT_FALSE(parallel_kernels_allowed());
    const Tensor serial = matmul(a, b);
    EXPECT_TRUE(bitwise_equal(serial, parallel));
  }
  EXPECT_TRUE(parallel_kernels_allowed());
}

}  // namespace
}  // namespace dkfac::linalg

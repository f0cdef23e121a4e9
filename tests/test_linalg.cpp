// Linear algebra validation: Jacobi Hermitian eigendecomposition, and the
// hypergradient solver's conjugate-gradient and Neumann solves
// (grad/inverse_hvp.hpp) on small fake operators, exit reasons included.
#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "grad/inverse_hvp.hpp"
#include "linalg/cmatrix.hpp"
#include "linalg/hermitian_eig.hpp"
#include "math/grid_ops.hpp"
#include "math/rng.hpp"

namespace bismo {
namespace {

CMatrix random_hermitian(Rng& rng, std::size_t n) {
  CMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = rng.uniform(-2.0, 2.0);
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::complex<double> v{rng.uniform(-1, 1), rng.uniform(-1, 1)};
      a(i, j) = v;
      a(j, i) = std::conj(v);
    }
  }
  return a;
}

TEST(CMatrix, IdentityAndMultiply) {
  CMatrix i3 = CMatrix::identity(3);
  CMatrix a(3, 3);
  a(0, 1) = {1.0, 2.0};
  a(2, 0) = {-1.0, 0.5};
  const CMatrix prod = a.multiply(i3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(prod(r, c), a(r, c));
    }
  }
  CMatrix b(2, 3);
  EXPECT_THROW(a.multiply(b), std::invalid_argument);
}

TEST(CMatrix, HermitianTranspose) {
  CMatrix a(2, 3);
  a(0, 1) = {1.0, 2.0};
  const CMatrix ah = a.hermitian();
  EXPECT_EQ(ah.rows(), 3u);
  EXPECT_EQ(ah.cols(), 2u);
  EXPECT_EQ(ah(1, 0), std::conj(a(0, 1)));
}

TEST(HermitianEig, DiagonalMatrixIsItsOwnDecomposition) {
  CMatrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = -1.0;
  a(2, 2) = 7.0;
  const HermitianEig eig = hermitian_eig(a);
  ASSERT_EQ(eig.values.size(), 3u);
  EXPECT_NEAR(eig.values[0], 7.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[2], -1.0, 1e-12);
}

TEST(HermitianEig, KnownTwoByTwo) {
  // [[2, i], [-i, 2]] has eigenvalues 3 and 1.
  CMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(1, 1) = 2.0;
  a(0, 1) = {0.0, 1.0};
  a(1, 0) = {0.0, -1.0};
  const HermitianEig eig = hermitian_eig(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
}

TEST(HermitianEig, NonSquareThrows) {
  CMatrix a(2, 3);
  EXPECT_THROW(hermitian_eig(a), std::invalid_argument);
}

class HermitianEigProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HermitianEigProperty, ReconstructsMatrix) {
  const std::size_t n = GetParam();
  Rng rng(500 + n);
  const CMatrix a = random_hermitian(rng, n);
  const HermitianEig eig = hermitian_eig(a);

  // Eigenvalues sorted descending.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    EXPECT_GE(eig.values[i], eig.values[i + 1] - 1e-12);
  }
  // V unitary: V^H V = I.
  const CMatrix vhv = eig.vectors.hermitian().multiply(eig.vectors);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double expect = i == j ? 1.0 : 0.0;
      EXPECT_NEAR(std::abs(vhv(i, j)), expect, 1e-9) << i << "," << j;
    }
  }
  // A V = V diag(lambda).
  const CMatrix av = a.multiply(eig.vectors);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::complex<double> expect = eig.vectors(i, j) * eig.values[j];
      EXPECT_NEAR(std::abs(av(i, j) - expect), 0.0, 1e-8) << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, HermitianEigProperty,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 8, 16, 40));

// ---- InverseHvp (grad/inverse_hvp.hpp) on small fake operators -----------

/// An operator out = A x given as a grid-returning function, the form a
/// fake is easiest to write in.
template <typename Apply>
auto as_hvp(Apply apply) {
  return [apply](const RealGrid& x, RealGrid& out) { out = apply(x); };
}

TEST(ConjugateGradient, SolvesDiagonalSystem) {
  RealGrid b(2, 2);
  b[0] = 2.0;
  b[1] = 6.0;
  b[2] = -4.0;
  b[3] = 1.0;
  // A = diag(1, 2, 4, 0.5) acting on the flattened grid.
  auto apply = [](const RealGrid& v) {
    RealGrid out = v;
    out[1] *= 2.0;
    out[2] *= 4.0;
    out[3] *= 0.5;
    return out;
  };
  RealGrid x(2, 2, 0.0);
  InverseHvp solver;
  const SolveReport res = solver.cg(as_hvp(apply), b, 20, 0.0, 1e-12, x);
  EXPECT_EQ(res.exit, SolveExit::kConverged);
  EXPECT_NEAR(x[0], 2.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
  EXPECT_NEAR(x[2], -1.0, 1e-9);
  EXPECT_NEAR(x[3], 2.0, 1e-9);
  EXPECT_LE(res.residual, 1e-12 * norm2(b));
}

/// SPD A = B^T B + I over flat vectors stored as 1 x n grids.
struct SpdOperator {
  std::vector<std::vector<double>> bmat;

  SpdOperator(Rng& rng, std::size_t n)
      : bmat(n, std::vector<double>(n)) {
    for (auto& row : bmat) {
      for (auto& v : row) v = rng.uniform(-1, 1);
    }
  }

  RealGrid operator()(const RealGrid& v) const {
    const std::size_t n = bmat.size();
    std::vector<double> bv(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) bv[i] += bmat[i][j] * v[j];
    }
    RealGrid out(1, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) out[j] += bmat[i][j] * bv[i];
      out[i] += v[i];
    }
    return out;
  }
};

TEST(ConjugateGradient, ConvergesInAtMostDimensionSteps) {
  Rng rng(777);
  const std::size_t n = 6;
  const SpdOperator apply(rng, n);
  RealGrid b(1, n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-2, 2);
  RealGrid x(1, n, 0.0);
  InverseHvp solver;
  const SolveReport res =
      solver.cg(as_hvp(apply), b, static_cast<int>(n) + 2, 0.0, 1e-10, x);
  EXPECT_EQ(res.exit, SolveExit::kConverged);
  const RealGrid residual = b - apply(x);
  EXPECT_LT(norm2(residual), 1e-8);
}

TEST(ConjugateGradient, StopsAtTheIterationBudget) {
  // Fewer steps than the dimension cannot reach 1e-10 on a generic SPD
  // system: the solve reports its budget and the residual it left.
  Rng rng(777);
  const std::size_t n = 6;
  const SpdOperator apply(rng, n);
  RealGrid b(1, n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-2, 2);
  RealGrid x(1, n, 0.0);
  InverseHvp solver;
  const SolveReport res = solver.cg(as_hvp(apply), b, 2, 0.0, 1e-10, x);
  EXPECT_EQ(res.exit, SolveExit::kBudget);
  EXPECT_EQ(res.iterations, 2);
  EXPECT_GT(res.residual, 1e-10 * norm2(b));
  EXPECT_LT(res.residual, norm2(b));
}

TEST(ConjugateGradient, WarmStartAtSolutionConvergesImmediately) {
  RealGrid b(1, 3);
  b[0] = 1.0;
  b[1] = 2.0;
  b[2] = 3.0;
  auto apply = [](const RealGrid& v) { return v; };  // identity
  RealGrid x = b;
  InverseHvp solver;
  const SolveReport res = solver.cg(as_hvp(apply), b, 5, 0.0, 1e-10, x);
  EXPECT_EQ(res.exit, SolveExit::kConverged);
  EXPECT_EQ(res.iterations, 0);
}

TEST(ConjugateGradient, DampingShiftsTheSystem) {
  RealGrid b(1, 2, 1.0);
  auto apply = [](const RealGrid& v) { return v; };  // A = I
  // Damping 1 solves (I + I) x = b -> x = 0.5.
  RealGrid x(1, 2, 0.0);
  InverseHvp solver;
  solver.cg(as_hvp(apply), b, 5, 1.0, 1e-12, x);
  EXPECT_NEAR(x[0], 0.5, 1e-10);
  EXPECT_NEAR(x[1], 0.5, 1e-10);
}

TEST(ConjugateGradient, StopsOnNegativeCurvature) {
  RealGrid b(1, 2, 1.0);
  auto apply = [](const RealGrid& v) { return v * -1.0; };  // negative definite
  RealGrid x(1, 2, 0.0);
  InverseHvp solver;
  const SolveReport res = solver.cg(as_hvp(apply), b, 5, 0.0, 1e-10, x);
  // Must not blow up; returns the (zero) iterate untouched.
  EXPECT_EQ(res.iterations, 0);
  EXPECT_EQ(res.exit, SolveExit::kCurvature);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
}

TEST(ConjugateGradient, ShapeMismatchThrows) {
  auto apply = [](const RealGrid& v) { return v; };
  RealGrid x(2, 2);
  InverseHvp solver;
  EXPECT_THROW(solver.cg(as_hvp(apply), RealGrid(1, 2), 5, 0.0, 1e-10, x),
               std::invalid_argument);
}

TEST(Neumann, GrowingTermKeepsThePartialSum) {
  // H = diag(1, -1), v = (1, 1): lambda = ||Hv|| / ||v|| = 1, so alpha =
  // min(0.5, 0.9) = 0.5.  Term 1, (I - alpha H) v = (0.5, 1.5), stays
  // below 1.5 ||v||; term 2, (0.25, 2.25), grows past it along the
  // negative direction.  The sum stops there: w = alpha (v + term 1).
  auto apply = [](const RealGrid& x) {
    RealGrid out = x;
    out[1] = -x[1];
    return out;
  };
  const RealGrid v(1, 2, 1.0);
  RealGrid w;
  InverseHvp solver;
  const SolveReport res = solver.neumann(as_hvp(apply), v, 0.5, 5, w);
  EXPECT_EQ(res.exit, SolveExit::kDiverged);
  EXPECT_EQ(res.iterations, 1);
  EXPECT_GT(res.residual, 1.5 * norm2(v));
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], 0.75);
  EXPECT_EQ(w[1], 1.25);
}

}  // namespace
}  // namespace bismo

// FFT engine validation: reference-DFT agreement (including mixed-radix
// sizes), round trips, Parseval, linearity, the shift theorem, the adjoint
// identities the manual gradients depend on, and the smooth-length rule
// (r * 2^k with odd r <= 15) that decides which lengths are planned.
#include <gtest/gtest.h>

#include <complex>
#include <stdexcept>
#include <vector>

#include "fft/fft.hpp"
#include "math/grid_ops.hpp"
#include "math/rng.hpp"
#include "test_util.hpp"

namespace bismo {
namespace {

using testing::max_diff;
using testing::naive_dft;
using testing::naive_dft2;
using testing::random_complex_grid;

class Fft1dAgainstNaive : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1dAgainstNaive, ForwardMatchesReference) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  std::vector<std::complex<double>> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto expect = naive_dft(x, /*inverse=*/false);
  auto got = x;
  fft_1d(got);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(got[i] - expect[i]), 0.0, 1e-9) << "bin " << i;
  }
}

TEST_P(Fft1dAgainstNaive, InverseMatchesReference) {
  const std::size_t n = GetParam();
  Rng rng(200 + n);
  std::vector<std::complex<double>> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto expect = naive_dft(x, /*inverse=*/true);
  auto got = x;
  ifft_1d(got);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(got[i] - expect[i]), 0.0, 1e-9) << "bin " << i;
  }
}

TEST_P(Fft1dAgainstNaive, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  Rng rng(300 + n);
  std::vector<std::complex<double>> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto y = x;
  fft_1d(y);
  ifft_1d(y);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
  }
}

// Power-of-two sizes exercise radix-2/4.  Sizes r * 2^k with odd r <= 15
// run the mixed-radix plan: every odd factor 3..15, alone (3, 5, 7, 13) or
// over power-of-two blocks (6 ... 192).
INSTANTIATE_TEST_SUITE_P(Sizes, Fft1dAgainstNaive,
                         ::testing::Values<std::size_t>(
                             1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 16, 20, 24, 32,
                             36, 40, 44, 48, 64, 80, 96, 104, 112, 120, 128,
                             160, 192));

TEST(Fft1d, SmoothLengthRule) {
  for (const std::size_t n : {1u, 2u, 3u, 15u, 16u, 24u, 96u, 104u, 120u,
                              128u, 480u, 512u}) {
    EXPECT_TRUE(is_smooth_length(n)) << n;
  }
  for (const std::size_t n : {0u, 17u, 34u, 50u, 76u, 100u, 136u}) {
    EXPECT_FALSE(is_smooth_length(n)) << n;
  }
  EXPECT_EQ(next_smooth_length(0), 1u);
  EXPECT_EQ(next_smooth_length(96), 96u);
  EXPECT_EQ(next_smooth_length(17), 18u);
  EXPECT_EQ(next_smooth_length(76), 80u);
  EXPECT_EQ(next_smooth_length(100), 104u);
  EXPECT_EQ(next_smooth_length(129), 144u);
}

TEST(Fft1d, NonSmoothLengthsAreRejected) {
  EXPECT_THROW(Fft1dPlan(0), std::invalid_argument);
  EXPECT_THROW(Fft1dPlan(17), std::invalid_argument);
  EXPECT_THROW(Fft1dPlan(100), std::invalid_argument);
  std::vector<std::complex<double>> x(34);
  EXPECT_THROW(fft_1d(x), std::invalid_argument);
  ComplexGrid g(8, 50);
  EXPECT_THROW(fft2(g), std::invalid_argument);
}

TEST(Fft1d, DeltaTransformsToConstant) {
  std::vector<std::complex<double>> x(8, {0.0, 0.0});
  x[0] = 1.0;
  fft_1d(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft1d, ConstantTransformsToScaledDelta) {
  std::vector<std::complex<double>> x(16, {1.0, 0.0});
  fft_1d(x);
  EXPECT_NEAR(x[0].real(), 16.0, 1e-12);
  for (std::size_t i = 1; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(x[i]), 0.0, 1e-11);
  }
}

TEST(Fft2d, MatchesNaive2dReference) {
  Rng rng(42);
  for (auto [rows, cols] : {std::pair<std::size_t, std::size_t>{4, 4},
                            {8, 8},
                            {4, 6},
                            {5, 7},
                            {16, 3}}) {
    ComplexGrid g = random_complex_grid(rng, rows, cols);
    const ComplexGrid expect = naive_dft2(g, false);
    const ComplexGrid got = fft2_copy(g);
    EXPECT_LT(max_diff(got, expect), 1e-9) << rows << "x" << cols;
    const ComplexGrid expect_inv = naive_dft2(g, true);
    const ComplexGrid got_inv = ifft2_copy(g);
    EXPECT_LT(max_diff(got_inv, expect_inv), 1e-9) << rows << "x" << cols;
  }
}

TEST(Fft2d, RoundTrip) {
  Rng rng(43);
  ComplexGrid g = random_complex_grid(rng, 32, 32);
  ComplexGrid h = g;
  fft2(h);
  ifft2(h);
  EXPECT_LT(max_diff(g, h), 1e-10);
}

TEST(Fft2d, ParsevalEnergyConservation) {
  Rng rng(44);
  ComplexGrid g = random_complex_grid(rng, 16, 16);
  const double spatial = norm2_sq(g);
  const ComplexGrid spec = fft2_copy(g);
  const double spectral = norm2_sq(spec) / static_cast<double>(g.size());
  EXPECT_NEAR(spatial, spectral, 1e-9 * spatial);
}

TEST(Fft2d, Linearity) {
  Rng rng(45);
  ComplexGrid a = random_complex_grid(rng, 8, 8);
  ComplexGrid b = random_complex_grid(rng, 8, 8);
  const std::complex<double> s{1.5, -0.5};
  ComplexGrid combo = a;
  for (std::size_t i = 0; i < combo.size(); ++i) combo[i] = a[i] + s * b[i];
  const ComplexGrid lhs = fft2_copy(combo);
  const ComplexGrid fa = fft2_copy(a);
  const ComplexGrid fb = fft2_copy(b);
  ComplexGrid rhs(8, 8);
  for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = fa[i] + s * fb[i];
  EXPECT_LT(max_diff(lhs, rhs), 1e-10);
}

TEST(Fft2d, ShiftTheorem) {
  // A circular shift in space multiplies the spectrum by a phase ramp.
  Rng rng(46);
  ComplexGrid g = random_complex_grid(rng, 8, 8);
  const std::size_t dr = 3;
  const std::size_t dc = 5;
  const ComplexGrid shifted = circshift(g, dr, dc);
  const ComplexGrid fs = fft2_copy(shifted);
  const ComplexGrid fg = fft2_copy(g);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      const double ang = -2.0 * M_PI *
                         (static_cast<double>(dr * r) / 8.0 +
                          static_cast<double>(dc * c) / 8.0);
      const std::complex<double> ramp{std::cos(ang), std::sin(ang)};
      EXPECT_NEAR(std::abs(fs(r, c) - fg(r, c) * ramp), 0.0, 1e-10);
    }
  }
}

TEST(FftAdjoint, FftAdjointIdentity) {
  // <F x, y> == <x, F^H y> for the real inner product Re(cdot).
  Rng rng(47);
  ComplexGrid x = random_complex_grid(rng, 8, 8);
  ComplexGrid y = random_complex_grid(rng, 8, 8);
  const auto lhs = cdot(fft2_copy(x), y);
  const auto rhs = cdot(x, fft2_adjoint(y));
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-9);
}

TEST(FftAdjoint, IfftAdjointIdentity) {
  Rng rng(48);
  ComplexGrid x = random_complex_grid(rng, 8, 8);
  ComplexGrid y = random_complex_grid(rng, 8, 8);
  const auto lhs = cdot(ifft2_copy(x), y);
  const auto rhs = cdot(x, ifft2_adjoint(y));
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-9);
}

TEST(FftShift, EvenSizeSwapsQuadrants) {
  RealGrid g(4, 4, 0.0);
  g(0, 0) = 1.0;  // DC
  const RealGrid s = fftshift(g);
  EXPECT_DOUBLE_EQ(s(2, 2), 1.0);
  const RealGrid back = ifftshift(s);
  EXPECT_DOUBLE_EQ(back(0, 0), 1.0);
}

TEST(FftShift, OddSizeRoundTrips) {
  Rng rng(49);
  RealGrid g = rng.uniform_grid(5, 7, -1.0, 1.0);
  const RealGrid round = ifftshift(fftshift(g));
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_DOUBLE_EQ(round[i], g[i]);
}

TEST(FftFreq, IndicesAndFrequencies) {
  // n=8: indices 0,1,2,3,-4,-3,-2,-1 (numpy convention: n/2 maps negative).
  EXPECT_EQ(fft_freq_index(0, 8), 0);
  EXPECT_EQ(fft_freq_index(3, 8), 3);
  EXPECT_EQ(fft_freq_index(4, 8), -4);
  EXPECT_EQ(fft_freq_index(7, 8), -1);
  // n=7: 0,1,2,3,-3,-2,-1.
  EXPECT_EQ(fft_freq_index(3, 7), 3);
  EXPECT_EQ(fft_freq_index(4, 7), -3);
  EXPECT_DOUBLE_EQ(fft_freq(1, 8, 2.0), 1.0 / 16.0);
  EXPECT_THROW(fft_freq_index(8, 8), std::out_of_range);
}

}  // namespace
}  // namespace bismo

// Shared helpers for the BiSMO test suite: reference (naive) DFTs, random
// grid factories, grid comparison assertions, and the FFT backend guard.
#ifndef BISMO_TESTS_TEST_UTIL_HPP
#define BISMO_TESTS_TEST_UTIL_HPP

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <string>

#include "fft/kernels/kernel.hpp"
#include "math/grid2d.hpp"
#include "math/rng.hpp"

namespace bismo::testing {

/// Restore the active FFT backend on scope exit, so a test that switches
/// backends leaves the default (or a BISMO_FFT_BACKEND pin) governing the
/// tests after it.  The named form also pins `name` for the scope.
class BackendGuard {
 public:
  BackendGuard() : previous_(fft::backend_name()) {}
  explicit BackendGuard(const std::string& name) : BackendGuard() {
    ok_ = fft::set_backend(name);
  }
  ~BackendGuard() { fft::set_backend(previous_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

  /// False when the named backend could not be selected.
  bool ok() const noexcept { return ok_; }

 private:
  std::string previous_;
  bool ok_ = true;
};

/// O(N^2) reference DFT used to validate the FFT engine on small sizes.
inline std::vector<std::complex<double>> naive_dft(
    const std::vector<std::complex<double>>& x, bool inverse) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * M_PI * static_cast<double>(k * j) /
                         static_cast<double>(n);
      acc += x[j] * std::complex<double>(std::cos(ang), std::sin(ang));
    }
    out[k] = inverse ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

/// O(N^4) reference 2-D DFT.
inline ComplexGrid naive_dft2(const ComplexGrid& g, bool inverse) {
  const std::size_t rows = g.rows();
  const std::size_t cols = g.cols();
  ComplexGrid out(rows, cols);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t kr = 0; kr < rows; ++kr) {
    for (std::size_t kc = 0; kc < cols; ++kc) {
      std::complex<double> acc{};
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          const double ang =
              sign * 2.0 * M_PI *
              (static_cast<double>(kr * r) / static_cast<double>(rows) +
               static_cast<double>(kc * c) / static_cast<double>(cols));
          acc += g(r, c) * std::complex<double>(std::cos(ang), std::sin(ang));
        }
      }
      out(kr, kc) =
          inverse ? acc / static_cast<double>(rows * cols) : acc;
    }
  }
  return out;
}

/// Tiny 32 x 32 binary target (a line plus a pad, both axes exercised)
/// shared by the runner-dispatch and api-facade suites; pairs with a
/// 512 nm tile at 16 nm pixels so every method runs in milliseconds.
inline RealGrid tiny_target32() {
  RealGrid t(32, 32, 0.0);
  for (std::size_t r = 14; r < 17; ++r) {
    for (std::size_t c = 6; c < 26; ++c) t(r, c) = 1.0;
  }
  for (std::size_t r = 20; r < 26; ++r) {
    for (std::size_t c = 20; c < 26; ++c) t(r, c) = 1.0;
  }
  return t;
}

/// Random complex grid with entries in the unit square.
inline ComplexGrid random_complex_grid(Rng& rng, std::size_t rows,
                                       std::size_t cols) {
  ComplexGrid g(rows, cols);
  for (auto& v : g) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return g;
}

/// Max elementwise absolute difference between complex grids.
inline double max_diff(const ComplexGrid& a, const ComplexGrid& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

/// Max elementwise absolute difference between real grids.
inline double max_diff(const RealGrid& a, const RealGrid& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

}  // namespace bismo::testing

#endif  // BISMO_TESTS_TEST_UTIL_HPP

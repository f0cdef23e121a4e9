// Deterministic random number generation.
//
// Every stochastic component of the library (layout generators, grad-check
// probes, test fixtures) draws from an explicitly seeded Rng so that a given
// seed reproduces bit-identical runs regardless of thread count or platform
// (std::mt19937_64 and the hand-rolled distributions below are fully
// specified, unlike std::uniform_real_distribution which is
// implementation-defined).
#ifndef BISMO_MATH_RNG_HPP
#define BISMO_MATH_RNG_HPP

#include <cmath>
#include <cstdint>
#include <random>

#include "math/grid2d.hpp"

namespace bismo {

/// Seeded pseudo-random generator with portable distributions.
class Rng {
 public:
  /// Construct from a 64-bit seed.
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() {
    // 53-bit mantissa construction: portable across standard libraries.
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    // Rejection-free modulo is fine here: span << 2^64 so bias is negligible
    // for layout synthesis; determinism is what matters.
    return lo + static_cast<std::int64_t>(engine_() % span);
  }

  /// Standard normal via Box-Muller (portable, unlike std::normal_distribution).
  double normal() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u1 = 0.0;
    do {
      u1 = uniform();
    } while (u1 <= 1e-300);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 6.283185307179586 * u2;
    spare_ = r * std::sin(theta);
    have_spare_ = true;
    return r * std::cos(theta);
  }

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double sigma) { return mean + sigma * normal(); }

  /// Bernoulli draw with probability `p` of true.
  bool bernoulli(double p) { return uniform() < p; }

  /// Grid of i.i.d. uniform [lo, hi) values.
  RealGrid uniform_grid(std::size_t rows, std::size_t cols, double lo,
                        double hi) {
    RealGrid g(rows, cols);
    for (auto& v : g) v = uniform(lo, hi);
    return g;
  }

  /// Access the raw engine (for std::shuffle etc.).
  std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace bismo

#endif  // BISMO_MATH_RNG_HPP

// Free-function elementwise operations and reductions over Grid2D.
//
// These are the vocabulary the gradient code is written in: `map`, `zip`,
// dot products, norms, sigmoid activation (Table 1 of the paper) and its
// derivative.  Everything is shape-checked and allocation-explicit.
#ifndef BISMO_MATH_GRID_OPS_HPP
#define BISMO_MATH_GRID_OPS_HPP

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <stdexcept>

#include "fft/kernels/kernel.hpp"
#include "math/grid2d.hpp"

namespace bismo {

/// Apply `fn` to every element, returning a new grid of the mapped type.
template <typename T, typename Fn>
auto map(const Grid2D<T>& g, Fn fn) {
  using R = decltype(fn(std::declval<T>()));
  Grid2D<R> out(g.rows(), g.cols());
  for (std::size_t i = 0; i < g.size(); ++i) out[i] = fn(g[i]);
  return out;
}

/// Combine two same-shaped grids elementwise with `fn`.
template <typename A, typename B, typename Fn>
auto zip(const Grid2D<A>& a, const Grid2D<B>& b, Fn fn) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("zip: shape mismatch");
  }
  using R = decltype(fn(std::declval<A>(), std::declval<B>()));
  Grid2D<R> out(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = fn(a[i], b[i]);
  return out;
}

/// Sum of all elements.
template <typename T>
T sum(const Grid2D<T>& g) {
  T acc{};
  for (const auto& v : g) acc += v;
  return acc;
}

/// Real inner product <a, b> = sum a_i * b_i.
inline double dot(const RealGrid& a, const RealGrid& b) {
  if (!a.same_shape(b)) throw std::invalid_argument("dot: shape mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

/// Complex inner product <a, b> = sum conj(a_i) * b_i.
inline std::complex<double> cdot(const ComplexGrid& a, const ComplexGrid& b) {
  if (!a.same_shape(b)) throw std::invalid_argument("cdot: shape mismatch");
  std::complex<double> acc{};
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::conj(a[i]) * b[i];
  return acc;
}

/// Squared Euclidean norm sum |g_i|^2 (works for real and complex).
template <typename T>
double norm2_sq(const Grid2D<T>& g) {
  double acc = 0.0;
  for (const auto& v : g) acc += std::norm(std::complex<double>(v));
  return acc;
}

/// Euclidean norm.
template <typename T>
double norm2(const Grid2D<T>& g) {
  return std::sqrt(norm2_sq(g));
}

/// Largest absolute element value.
template <typename T>
double max_abs(const Grid2D<T>& g) {
  double m = 0.0;
  for (const auto& v : g) m = std::max(m, std::abs(std::complex<double>(v)));
  return m;
}

/// Minimum element (real grids only).
inline double min_value(const RealGrid& g) {
  double m = std::numeric_limits<double>::infinity();
  for (double v : g) m = std::min(m, v);
  return m;
}

/// Maximum element (real grids only).
inline double max_value(const RealGrid& g) {
  double m = -std::numeric_limits<double>::infinity();
  for (double v : g) m = std::max(m, v);
  return m;
}

/// Numerically safe logistic sigmoid 1 / (1 + exp(-x)).
inline double sigmoid(double x) {
  if (x >= 0.0) {
    return 1.0 / (1.0 + std::exp(-x));
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

/// Derivative of the sigmoid expressed through its output: s * (1 - s).
inline double sigmoid_derivative_from_output(double s) { return s * (1.0 - s); }

/// Elementwise sigmoid with steepness `alpha`: out = sigmoid(alpha * x).
/// This is the activation of Table 1 for both mask and source parameters.
/// Runs through the active SIMD kernel backend (fft/kernels/), like every
/// other dense sigmoid pass in the system.
inline RealGrid sigmoid_activation(const RealGrid& theta, double alpha) {
  RealGrid out(theta.rows(), theta.cols());
  fft::active_kernel().sigmoid(out.data(), theta.data(), theta.size(), alpha,
                               /*shift=*/0.0);
  return out;
}

/// Binarize a real grid at `threshold` to exact {0,1}.
inline RealGrid binarize(const RealGrid& g, double threshold = 0.5) {
  return map(g, [threshold](double v) { return v > threshold ? 1.0 : 0.0; });
}

/// Real part of a complex grid.
inline RealGrid real_part(const ComplexGrid& g) {
  return map(g, [](std::complex<double> v) { return v.real(); });
}

/// |g|^2 elementwise (field intensity).
inline RealGrid abs_sq(const ComplexGrid& g) {
  return map(g, [](std::complex<double> v) { return std::norm(v); });
}

/// Promote a real grid to complex (imaginary part zero).
inline ComplexGrid to_complex(const RealGrid& g) {
  return map(g, [](double v) { return std::complex<double>(v, 0.0); });
}

/// a + s * b, shapes must match (axpy).
inline RealGrid axpy(const RealGrid& a, double s, const RealGrid& b) {
  return zip(a, b, [s](double x, double y) { return x + s * y; });
}

}  // namespace bismo

#endif  // BISMO_MATH_GRID_OPS_HPP

#include "litho/source.hpp"

#include <cmath>
#include <stdexcept>

namespace bismo {

namespace {
constexpr double kPi = 3.141592653589793238462643383279502884;

/// Smallest absolute angular distance (radians) between `a` and `b`.
double angle_distance(double a, double b) {
  double d = std::fmod(std::abs(a - b), 2.0 * kPi);
  return std::min(d, 2.0 * kPi - d);
}
}  // namespace

SourceGeometry::SourceGeometry(std::size_t nj, const OpticsConfig& optics)
    : nj_(nj), na_over_lambda_(optics.cutoff_frequency()), valid_(nj, nj, 0.0) {
  if (nj < 2) throw std::invalid_argument("SourceGeometry: Nj must be >= 2");
  points_.reserve(nj * nj);
  for (std::size_t r = 0; r < nj; ++r) {
    const double sy = sigma_of(r);
    for (std::size_t c = 0; c < nj; ++c) {
      const double sx = sigma_of(c);
      if (sx * sx + sy * sy > 1.0 + 1e-12) continue;
      valid_(r, c) = 1.0;
      SourcePoint p;
      p.row = r;
      p.col = c;
      p.sigma_x = sx;
      p.sigma_y = sy;
      p.freq_x = sx * na_over_lambda_;
      p.freq_y = sy * na_over_lambda_;
      points_.push_back(p);
    }
  }
}

double SourceGeometry::sigma_of(std::size_t idx) const {
  // Nj points spanning [-1, 1] inclusive.
  return -1.0 + 2.0 * static_cast<double>(idx) / static_cast<double>(nj_ - 1);
}

RealGrid make_source(const SourceGeometry& geometry, const SourceSpec& spec) {
  const std::size_t nj = geometry.dim();
  RealGrid j(nj, nj, 0.0);
  const bool uses_inner_radius = spec.shape == SourceShape::kAnnular ||
                                 spec.shape == SourceShape::kDipoleX ||
                                 spec.shape == SourceShape::kDipoleY ||
                                 spec.shape == SourceShape::kQuasar;
  if (uses_inner_radius && spec.sigma_out < spec.sigma_in) {
    throw std::invalid_argument("make_source: sigma_out < sigma_in");
  }
  const double half_opening = spec.opening_deg * kPi / 180.0 / 2.0;
  for (const SourcePoint& p : geometry.points()) {
    const double rho = std::hypot(p.sigma_x, p.sigma_y);
    const double phi = std::atan2(p.sigma_y, p.sigma_x);
    bool on = false;
    switch (spec.shape) {
      case SourceShape::kAnnular:
        on = rho >= spec.sigma_in && rho <= spec.sigma_out;
        break;
      case SourceShape::kConventional:
        on = rho <= spec.sigma_out;
        break;
      case SourceShape::kDipoleX:
        on = rho >= spec.sigma_in && rho <= spec.sigma_out &&
             (angle_distance(phi, 0.0) <= half_opening ||
              angle_distance(phi, kPi) <= half_opening);
        break;
      case SourceShape::kDipoleY:
        on = rho >= spec.sigma_in && rho <= spec.sigma_out &&
             (angle_distance(phi, kPi / 2.0) <= half_opening ||
              angle_distance(phi, -kPi / 2.0) <= half_opening);
        break;
      case SourceShape::kQuasar: {
        on = rho >= spec.sigma_in && rho <= spec.sigma_out;
        if (on) {
          bool near_pole = false;
          for (int k = 0; k < 4; ++k) {
            const double pole = kPi / 4.0 + k * kPi / 2.0;
            near_pole = near_pole || angle_distance(phi, pole) <= half_opening;
          }
          on = near_pole;
        }
        break;
      }
      case SourceShape::kPoint:
        on = rho <= 1e-9;
        break;
    }
    if (on) j(p.row, p.col) = 1.0;
  }
  if (spec.shape == SourceShape::kPoint) {
    // Guarantee at least the centre-most point is lit even when the sigma
    // grid has no exact origin sample (even Nj).
    double best = 2.0;
    const SourcePoint* centre = nullptr;
    for (const SourcePoint& p : geometry.points()) {
      const double rho = std::hypot(p.sigma_x, p.sigma_y);
      if (rho < best) {
        best = rho;
        centre = &p;
      }
    }
    if (centre != nullptr) j(centre->row, centre->col) = 1.0;
  }
  return j;
}

std::string to_string(SourceShape shape) {
  const auto index = static_cast<std::size_t>(shape);
  return index < kSourceShapeNames.size() ? kSourceShapeNames[index]
                                          : "unknown";
}

double source_power(const SourceGeometry& geometry, const RealGrid& source) {
  double acc = 0.0;
  for (const SourcePoint& p : geometry.points()) acc += source(p.row, p.col);
  return acc;
}

std::size_t effective_point_count(const SourceGeometry& geometry,
                                  const RealGrid& source, double cutoff) {
  std::size_t n = 0;
  for (const SourcePoint& p : geometry.points()) {
    if (source(p.row, p.col) > cutoff) ++n;
  }
  return n;
}

}  // namespace bismo

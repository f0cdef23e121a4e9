// Illumination source representation (paper Sec. 3.1).
//
// The pixelated freeform source lives on an Nj x Nj grid spanning the
// sigma-disc (normalized pupil-fill coordinates sigma in [-1, 1]^2, points
// outside the unit disc are non-physical and excluded).  Each grid point
// (fsx, fsy) = sigma * NA / lambda is one Abbe source point.  Parametric
// templates (annular / dipole / quasar / conventional) provide the initial
// shapes J0 characterized by outer/inner radii sigma_o, sigma_i.
#ifndef BISMO_LITHO_SOURCE_HPP
#define BISMO_LITHO_SOURCE_HPP

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "litho/optics.hpp"
#include "math/grid2d.hpp"

namespace bismo {

/// One sampling point of the pixelated source.
struct SourcePoint {
  std::size_t row = 0;   ///< row in the Nj x Nj source grid
  std::size_t col = 0;   ///< column in the Nj x Nj source grid
  double sigma_x = 0.0;  ///< normalized pupil-fill coordinate
  double sigma_y = 0.0;
  double freq_x = 0.0;   ///< frequency offset f_sigma (cycles/nm)
  double freq_y = 0.0;
};

/// Geometry of the source sampling grid: where each source pixel sits in
/// sigma space and frequency space.  Fixed for a given (Nj, optics); the
/// optimizable quantity is the per-point magnitude grid J.
class SourceGeometry {
 public:
  /// Build an Nj x Nj sigma-grid for the given optics.  Nj must be >= 2.
  SourceGeometry(std::size_t nj, const OpticsConfig& optics);

  /// Source grid dimension Nj.
  std::size_t dim() const noexcept { return nj_; }

  /// All physically valid source points (|sigma| <= 1), row-major order.
  const std::vector<SourcePoint>& points() const noexcept { return points_; }

  /// True when source pixel (r, c) lies inside the unit sigma-disc.
  bool valid(std::size_t r, std::size_t c) const {
    return valid_(r, c) > 0.5;
  }

  /// 0/1 validity mask over the Nj x Nj grid.
  const RealGrid& validity_mask() const noexcept { return valid_; }

  /// Sigma coordinate of a grid index along either axis.
  double sigma_of(std::size_t idx) const;

 private:
  std::size_t nj_;
  double na_over_lambda_;
  std::vector<SourcePoint> points_;
  RealGrid valid_;
};

/// Parametric source template kinds.
enum class SourceShape {
  kAnnular,       ///< sigma_i <= |sigma| <= sigma_o
  kConventional,  ///< |sigma| <= sigma_o (disc)
  kDipoleX,       ///< annular restricted to poles on the x axis
  kDipoleY,       ///< annular restricted to poles on the y axis
  kQuasar,        ///< annular restricted to four diagonal poles
  kPoint,         ///< single on-axis point (coherent illumination)
};

/// Spelling of each shape, indexed by enumerator (logs, config keys).
inline constexpr std::array<const char*, 6> kSourceShapeNames = {
    "annular", "conventional", "dipole-x", "dipole-y", "quasar", "point"};

/// Parameters of a template; opening_deg is the angular half-width of each
/// pole for dipole/quasar shapes.
struct SourceSpec {
  SourceShape shape = SourceShape::kAnnular;
  double sigma_out = 0.95;  ///< paper Sec. 4: sigma_o = 0.95
  double sigma_in = 0.63;   ///< paper Sec. 4: sigma_i = 0.63
  double opening_deg = 45.0;
};

/// Render a template to a binary {0,1} magnitude grid over the geometry
/// (invalid points are always 0).
RealGrid make_source(const SourceGeometry& geometry, const SourceSpec& spec);

/// Human-readable name of a shape (for logs and bench output).
std::string to_string(SourceShape shape);

/// Total source power sum_sigma j_sigma over valid points.
double source_power(const SourceGeometry& geometry, const RealGrid& source);

/// Number of effective source points (j_sigma > cutoff) -- the sigma count
/// in the paper's Abbe/Hopkins complexity ratio (Sec. 3.1).
std::size_t effective_point_count(const SourceGeometry& geometry,
                                  const RealGrid& source,
                                  double cutoff = 1e-6);

}  // namespace bismo

#endif  // BISMO_LITHO_SOURCE_HPP

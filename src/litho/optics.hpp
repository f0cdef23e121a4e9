// Optical configuration of the projection system (paper Sec. 2.1 / Sec. 4):
// 193 nm immersion illumination, NA = 1.35, square mask tiles.
//
// All physical lengths are in nanometres; frequencies in cycles/nm.  The
// mask is an Nm x Nm pixel grid covering a tile of Nm * pixel_nm per side;
// its DFT samples frequencies on a grid of pitch 1 / (Nm * pixel_nm).
#ifndef BISMO_LITHO_OPTICS_HPP
#define BISMO_LITHO_OPTICS_HPP

#include <cstddef>
#include <stdexcept>
#include <string>

#include "fft/fft.hpp"

namespace bismo {

/// Projection-system and discretization parameters.
struct OpticsConfig {
  double wavelength_nm = 193.0;  ///< illumination wavelength (lambda)
  double na = 1.35;              ///< numerical aperture
  std::size_t mask_dim = 256;    ///< Nm: mask grid is mask_dim x mask_dim
  double pixel_nm = 4.0;         ///< mask pixel pitch on the wafer plane
  double defocus_nm = 0.0;       ///< defocus aberration (0 = nominal focus)

  /// Pupil cut-off frequency NA / lambda (Eq. 5), cycles/nm.
  double cutoff_frequency() const noexcept { return na / wavelength_nm; }

  /// Frequency-grid pitch 1 / (Nm * pixel) in cycles/nm.
  double freq_pitch() const noexcept {
    return 1.0 / (static_cast<double>(mask_dim) * pixel_nm);
  }

  /// Pupil cut-off radius measured in frequency-grid bins.
  double cutoff_bins() const noexcept {
    return cutoff_frequency() / freq_pitch();
  }

  /// Physical tile side length in nm.
  double tile_nm() const noexcept {
    return static_cast<double>(mask_dim) * pixel_nm;
  }

  /// Validate the configuration; throws std::invalid_argument when
  /// mask_dim is below 8 or not a smooth FFT length (is_smooth_length), or
  /// when the sampling cannot represent the doubled pupil band
  /// (|f| <= 2 NA/lambda must fit below Nyquist, i.e. pixel_nm <=
  /// lambda / (4 NA)).
  void validate() const {
    if (wavelength_nm <= 0) {
      throw std::invalid_argument("OpticsConfig: wavelength_nm = " +
                                  std::to_string(wavelength_nm) +
                                  " invalid (must be positive)");
    }
    if (na <= 0) {
      throw std::invalid_argument("OpticsConfig: na = " + std::to_string(na) +
                                  " invalid (must be positive)");
    }
    if (pixel_nm <= 0) {
      throw std::invalid_argument("OpticsConfig: pixel_nm = " +
                                  std::to_string(pixel_nm) +
                                  " invalid (must be positive)");
    }
    if (mask_dim < 8) {
      throw std::invalid_argument("OpticsConfig: mask_dim = " +
                                  std::to_string(mask_dim) +
                                  " invalid (need >= 8)");
    }
    if (!is_smooth_length(mask_dim)) {
      std::size_t below = mask_dim;
      while (!is_smooth_length(below)) --below;
      throw std::invalid_argument(
          "OpticsConfig: mask_dim = " + std::to_string(mask_dim) +
          " invalid (need r * 2^k with odd r <= " +
          std::to_string(kMaxOddFactor) + "; nearest are " +
          std::to_string(below) + " and " +
          std::to_string(next_smooth_length(mask_dim)) + ")");
    }
    const double nyquist = 1.0 / (2.0 * pixel_nm);
    if (2.0 * cutoff_frequency() > nyquist) {
      throw std::invalid_argument(
          "OpticsConfig: pixel_nm = " + std::to_string(pixel_nm) +
          " too coarse for the shifted pupil band (need pixel_nm <= lambda /"
          " (4 NA) = " +
          std::to_string(wavelength_nm / (4.0 * na)) + " nm)");
    }
  }
};

/// Exposure dose corners for process-window evaluation (paper Eq. 8 uses a
/// +/-2 % dose range: d_min = 0.98, d_max = 1.02).
struct ProcessWindow {
  double dose_min = 0.98;
  double dose_max = 1.02;
};

/// A single process condition: the dose factor applied to the activated
/// mask (M_cond = dose * M), nominal being 1.0.
enum class DoseCorner { kNominal, kMin, kMax };

/// Dose factor for a corner under the given window.
inline double dose_factor(DoseCorner corner, const ProcessWindow& pw) {
  switch (corner) {
    case DoseCorner::kNominal:
      return 1.0;
    case DoseCorner::kMin:
      return pw.dose_min;
    case DoseCorner::kMax:
      return pw.dose_max;
  }
  throw std::invalid_argument("dose_factor: bad corner");
}

}  // namespace bismo

#endif  // BISMO_LITHO_OPTICS_HPP

// Abbe imaging engine tests: physical invariants (clear/dark field, dose
// scaling, normalization, symmetry), parallel determinism, band limits.
#include <gtest/gtest.h>

#include <cmath>

#include "fft/fft.hpp"
#include "imaging_reference.hpp"
#include "litho/abbe.hpp"
#include "math/grid_ops.hpp"
#include "math/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "test_util.hpp"

namespace bismo {
namespace {

OpticsConfig small_optics() {
  OpticsConfig o;
  o.mask_dim = 64;
  o.pixel_nm = 8.0;
  return o;
}

SourceGeometry small_geometry() { return SourceGeometry(7, small_optics()); }

RealGrid annular_source(const SourceGeometry& g) {
  SourceSpec spec;  // defaults: annular 0.63..0.95
  return make_source(g, spec);
}

ComplexGrid spectrum_of(const RealGrid& mask) {
  ComplexGrid o = to_complex(mask);
  fft2(o);
  return o;
}

TEST(AbbeImaging, ClearFieldIntensityIsOne) {
  const auto geometry = small_geometry();
  const AbbeImaging abbe(small_optics(), geometry);
  const RealGrid j = annular_source(geometry);
  const RealGrid mask(64, 64, 1.0);
  const AbbeAerial aerial = abbe.aerial(spectrum_of(mask), j);
  for (double v : aerial.intensity) EXPECT_NEAR(v, 1.0, 1e-9);
  EXPECT_NEAR(aerial.total_weight, source_power(geometry, j), 1e-12);
}

TEST(AbbeImaging, DarkFieldIntensityIsZero) {
  const auto geometry = small_geometry();
  const AbbeImaging abbe(small_optics(), geometry);
  const RealGrid j = annular_source(geometry);
  const RealGrid mask(64, 64, 0.0);
  const AbbeAerial aerial = abbe.aerial(spectrum_of(mask), j);
  for (double v : aerial.intensity) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(AbbeImaging, IntensityIsNonNegativeAndBounded) {
  const auto geometry = small_geometry();
  const AbbeImaging abbe(small_optics(), geometry);
  const RealGrid j = annular_source(geometry);
  Rng rng(7);
  const RealGrid mask = rng.uniform_grid(64, 64, 0.0, 1.0);
  const AbbeAerial aerial = abbe.aerial(spectrum_of(mask), j);
  for (double v : aerial.intensity) {
    EXPECT_GE(v, -1e-12);
    // A passive optical system cannot exceed clear-field intensity by much
    // (slight overshoot from coherent interference is possible but small).
    EXPECT_LE(v, 2.0);
  }
}

TEST(AbbeImaging, DoseScalingIsQuadraticInMaskTransmission) {
  // I(d*M) = d^2 I(M): intensity is quadratic in the field.
  const auto geometry = small_geometry();
  const AbbeImaging abbe(small_optics(), geometry);
  const RealGrid j = annular_source(geometry);
  Rng rng(8);
  const RealGrid mask = rng.uniform_grid(64, 64, 0.0, 1.0);
  const double d = 1.02;
  const AbbeAerial nominal = abbe.aerial(spectrum_of(mask), j);
  const AbbeAerial scaled = abbe.aerial(spectrum_of(mask * d), j);
  for (std::size_t i = 0; i < nominal.intensity.size(); ++i) {
    EXPECT_NEAR(scaled.intensity[i], d * d * nominal.intensity[i], 1e-9);
  }
}

TEST(AbbeImaging, NormalizationMakesSourceScaleInvariant) {
  // Doubling every source weight must not change the normalized intensity.
  const auto geometry = small_geometry();
  const AbbeImaging abbe(small_optics(), geometry);
  const RealGrid j = annular_source(geometry);
  Rng rng(9);
  const RealGrid mask = rng.uniform_grid(64, 64, 0.0, 1.0);
  const ComplexGrid o = spectrum_of(mask);
  const AbbeAerial a1 = abbe.aerial(o, j);
  const AbbeAerial a2 = abbe.aerial(o, j * 0.5);
  EXPECT_LT(testing::max_diff(a1.intensity, a2.intensity), 1e-10);
}

TEST(AbbeImaging, ParallelMatchesSerialBitwise) {
  const auto geometry = small_geometry();
  ThreadPool pool(3);
  const AbbeImaging serial(small_optics(), geometry, nullptr);
  const AbbeImaging parallel(small_optics(), geometry, &pool);
  const RealGrid j = annular_source(geometry);
  Rng rng(10);
  const RealGrid mask = rng.uniform_grid(64, 64, 0.0, 1.0);
  const ComplexGrid o = spectrum_of(mask);
  const RealGrid a = serial.aerial(o, j).intensity;
  const RealGrid b = parallel.aerial(o, j).intensity;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "parallel reduction must be deterministic";
  }
}

TEST(AbbeImaging, CoherentPointSourceMatchesDirectFormula) {
  // With a single on-axis source point, I = |IFFT(H .* O)|^2 / 1.
  const auto o_cfg = small_optics();
  const SourceGeometry geometry(7, o_cfg);
  const AbbeImaging abbe(o_cfg, geometry);
  SourceSpec spec;
  spec.shape = SourceShape::kPoint;
  const RealGrid j = make_source(geometry, spec);
  Rng rng(11);
  const RealGrid mask = rng.uniform_grid(64, 64, 0.0, 1.0);
  const ComplexGrid o = spectrum_of(mask);

  const Pupil pupil(o_cfg);
  ComplexGrid masked(64, 64);
  const double pitch = o_cfg.freq_pitch();
  for (std::size_t r = 0; r < 64; ++r) {
    const double fy = fft_freq_index(r, 64) * pitch;
    for (std::size_t c = 0; c < 64; ++c) {
      const double fx = fft_freq_index(c, 64) * pitch;
      masked(r, c) = o(r, c) * pupil.value(fx, fy);
    }
  }
  ifft2(masked);
  const RealGrid direct = abs_sq(masked);
  const RealGrid engine = abbe.aerial(o, j).intensity;
  EXPECT_LT(testing::max_diff(direct, engine), 1e-10);
}

TEST(AbbeImaging, SymmetricMaskAndSourceGiveSymmetricImage) {
  const auto geometry = small_geometry();
  const AbbeImaging abbe(small_optics(), geometry);
  const RealGrid j = annular_source(geometry);  // 4-fold symmetric
  RealGrid mask(64, 64, 0.0);
  // Centered square, symmetric under x/y mirror about the grid centre
  // (using the DFT-periodic convention: mirror index n-i).
  for (std::size_t r = 28; r < 37; ++r) {
    for (std::size_t c = 28; c < 37; ++c) mask(r, c) = 1.0;
  }
  const RealGrid intensity = abbe.aerial(spectrum_of(mask), j).intensity;
  for (std::size_t r = 1; r < 64; ++r) {
    for (std::size_t c = 1; c < 64; ++c) {
      EXPECT_NEAR(intensity(r, c), intensity(64 - r, c), 1e-9);
      EXPECT_NEAR(intensity(r, c), intensity(r, 64 - c), 1e-9);
    }
  }
}

TEST(AbbeImaging, FieldIsBandLimited) {
  // The coherent field of any source point has spectrum confined to the
  // shifted pupil disc; check by transforming the field back.
  const auto geometry = small_geometry();
  const AbbeImaging abbe(small_optics(), geometry);
  Rng rng(12);
  const RealGrid mask = rng.uniform_grid(64, 64, 0.0, 1.0);
  const ComplexGrid o = spectrum_of(mask);
  const std::size_t point = geometry.points().size() / 2;
  ComplexGrid field = reference::field(o, abbe.component_band(point));
  fft2(field);
  const PassBand& band = abbe.passband(point);
  std::vector<bool> in_band(64 * 64, false);
  for (auto idx : band.indices) in_band[idx] = true;
  for (std::size_t i = 0; i < field.size(); ++i) {
    if (!in_band[i]) {
      EXPECT_NEAR(std::abs(field[i]), 0.0, 1e-8) << "bin " << i;
    }
  }
}

TEST(AbbeImaging, CutoffSkipsZeroWeightPoints) {
  const auto geometry = small_geometry();
  const AbbeImaging abbe(small_optics(), geometry);
  RealGrid j(7, 7, 0.0);
  // Single lit point among zeros: cutoff must not drop it.
  const SourcePoint& p = geometry.points().front();
  j(p.row, p.col) = 1.0;
  Rng rng(13);
  const RealGrid mask = rng.uniform_grid(64, 64, 0.0, 1.0);
  const AbbeAerial aerial = abbe.aerial(spectrum_of(mask), j);
  EXPECT_GT(max_value(aerial.intensity), 0.0);
}

TEST(AbbeImaging, ShapeMismatchThrows) {
  const auto geometry = small_geometry();
  const AbbeImaging abbe(small_optics(), geometry);
  const RealGrid j(7, 7, 1.0);
  EXPECT_THROW(abbe.aerial(ComplexGrid(32, 32), j), std::invalid_argument);
  EXPECT_THROW(abbe.aerial(ComplexGrid(64, 64), RealGrid(5, 5, 1.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace bismo

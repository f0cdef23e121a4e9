// Pupil / optics configuration tests: cut-off geometry (Eq. 5), defocus
// phase behaviour, and the exactness of shifted pass-band enumeration.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "fft/fft.hpp"
#include "litho/optics.hpp"
#include "litho/pupil.hpp"

namespace bismo {
namespace {

OpticsConfig small_optics() {
  OpticsConfig o;
  o.mask_dim = 64;
  o.pixel_nm = 8.0;
  return o;  // lambda=193, NA=1.35 defaults
}

TEST(OpticsConfig, DerivedQuantities) {
  const OpticsConfig o = small_optics();
  EXPECT_NEAR(o.cutoff_frequency(), 1.35 / 193.0, 1e-15);
  EXPECT_NEAR(o.freq_pitch(), 1.0 / (64.0 * 8.0), 1e-15);
  EXPECT_NEAR(o.cutoff_bins(), 1.35 * 512.0 / 193.0, 1e-9);
  EXPECT_DOUBLE_EQ(o.tile_nm(), 512.0);
}

TEST(OpticsConfig, ValidationRejectsBadParameters) {
  OpticsConfig o = small_optics();
  o.na = -1.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = small_optics();
  o.mask_dim = 4;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = small_optics();
  o.pixel_nm = 40.0;  // coarser than lambda/(4 NA) ~ 35.7 nm
  EXPECT_THROW(o.validate(), std::invalid_argument);
  EXPECT_NO_THROW(small_optics().validate());
}

TEST(OpticsConfig, MaskDimMustBeSmoothAndTheErrorNamesTheNearestSizes) {
  // Non-smooth sides (odd part above 15) are rejected with the nearest
  // smooth sizes below and above.
  const struct {
    std::size_t dim, below, above;
  } rejected[] = {
      {17, 16, 18}, {34, 32, 36}, {50, 48, 52}, {76, 72, 80}, {100, 96, 104}};
  for (const auto& c : rejected) {
    OpticsConfig o = small_optics();
    o.mask_dim = c.dim;
    try {
      o.validate();
      ADD_FAILURE() << c.dim << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("mask_dim = " + std::to_string(c.dim)),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find("nearest are " + std::to_string(c.below) + " and " +
                         std::to_string(c.above)),
                std::string::npos)
          << msg;
    }
  }
  for (const std::size_t dim :
       {8u, 12u, 24u, 80u, 96u, 120u, 128u, 192u, 256u, 512u}) {
    OpticsConfig o = small_optics();
    o.mask_dim = dim;
    EXPECT_NO_THROW(o.validate()) << dim;
  }
}

TEST(OpticsConfig, DoseFactors) {
  const ProcessWindow pw;
  EXPECT_DOUBLE_EQ(dose_factor(DoseCorner::kNominal, pw), 1.0);
  EXPECT_DOUBLE_EQ(dose_factor(DoseCorner::kMin, pw), 0.98);
  EXPECT_DOUBLE_EQ(dose_factor(DoseCorner::kMax, pw), 1.02);
}

TEST(Pupil, DcPassesEdgeDoesNot) {
  const Pupil pupil(small_optics());
  const double fc = small_optics().cutoff_frequency();
  EXPECT_TRUE(pupil.passes(0.0, 0.0));
  EXPECT_TRUE(pupil.passes(fc * 0.999, 0.0));
  EXPECT_FALSE(pupil.passes(fc * 1.001, 0.0));
  EXPECT_FALSE(pupil.passes(fc, fc));
}

TEST(Pupil, InFocusValueIsBinaryIndicator) {
  const Pupil pupil(small_optics());
  const double fc = small_optics().cutoff_frequency();
  EXPECT_EQ(pupil.value(0.0, 0.0), std::complex<double>(1.0, 0.0));
  EXPECT_EQ(pupil.value(2.0 * fc, 0.0), std::complex<double>(0.0, 0.0));
}

TEST(Pupil, DensePassCountMatchesDiscArea) {
  const Pupil pupil(small_optics());
  const ComplexGrid h = pupil.dense();
  std::size_t count = 0;
  for (const auto& v : h) {
    if (v != std::complex<double>{}) ++count;
  }
  const double r = small_optics().cutoff_bins();
  const double area = M_PI * r * r;
  // Pixelized disc area within ~20% of the analytic area.
  EXPECT_GT(static_cast<double>(count), 0.8 * area);
  EXPECT_LT(static_cast<double>(count), 1.2 * area);
}

TEST(Pupil, UnshiftedPassbandMatchesDense) {
  const Pupil pupil(small_optics());
  const PassBand band = pupil.shifted_passband(0.0, 0.0);
  const ComplexGrid h = pupil.dense();
  std::size_t dense_count = 0;
  for (const auto& v : h) {
    if (v != std::complex<double>{}) ++dense_count;
  }
  EXPECT_EQ(band.indices.size(), dense_count);
  EXPECT_TRUE(band.values.empty()) << "in-focus pass values must be implicit 1";
  for (std::uint32_t idx : band.indices) {
    EXPECT_NE(h[idx], std::complex<double>{});
  }
}

TEST(Pupil, ShiftedPassbandIsExactIndicator) {
  const OpticsConfig o = small_optics();
  const Pupil pupil(o);
  const double fc = o.cutoff_frequency();
  const double fsx = 0.5 * fc;
  const double fsy = -0.25 * fc;
  const PassBand band = pupil.shifted_passband(fsx, fsy);
  // Every listed bin satisfies |f + fs| <= fc; every unlisted bin does not.
  std::vector<bool> listed(o.mask_dim * o.mask_dim, false);
  for (std::uint32_t idx : band.indices) listed[idx] = true;
  const double pitch = o.freq_pitch();
  for (std::size_t r = 0; r < o.mask_dim; ++r) {
    const double fy = fft_freq_index(r, o.mask_dim) * pitch;
    for (std::size_t c = 0; c < o.mask_dim; ++c) {
      const double fx = fft_freq_index(c, o.mask_dim) * pitch;
      const bool inside =
          (fx + fsx) * (fx + fsx) + (fy + fsy) * (fy + fsy) <= fc * fc;
      EXPECT_EQ(listed[r * o.mask_dim + c], inside) << r << "," << c;
    }
  }
}

TEST(Pupil, LargeShiftShrinksPassband) {
  const OpticsConfig o = small_optics();
  const Pupil pupil(o);
  const double fc = o.cutoff_frequency();
  const auto centered = pupil.shifted_passband(0.0, 0.0).indices.size();
  const auto shifted = pupil.shifted_passband(fc, 0.0).indices.size();
  // A shift by the full cut-off still leaves roughly the same disc (the
  // frequency grid is periodic and the band fits), so sizes stay comparable.
  EXPECT_GT(shifted, centered / 2);
  EXPECT_LT(shifted, centered * 2);
}

TEST(Pupil, DefocusAddsUnitMagnitudePhase) {
  OpticsConfig o = small_optics();
  o.defocus_nm = 50.0;
  const Pupil pupil(o);
  const double fc = o.cutoff_frequency();
  const auto v = pupil.value(0.5 * fc, 0.0);
  EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
  EXPECT_NE(v.imag(), 0.0);  // off-axis frequencies acquire phase
  // DC keeps zero phase (sqrt(1-0) - 1 = 0).
  const auto dc = pupil.value(0.0, 0.0);
  EXPECT_NEAR(dc.real(), 1.0, 1e-12);
  EXPECT_NEAR(dc.imag(), 0.0, 1e-12);
}

TEST(Pupil, DefocusPassbandCarriesValues) {
  OpticsConfig o = small_optics();
  o.defocus_nm = 80.0;
  const Pupil pupil(o);
  const PassBand band = pupil.shifted_passband(0.0, 0.0);
  ASSERT_FALSE(band.values.empty());
  ASSERT_EQ(band.values.size(), band.indices.size());
  for (const auto& v : band.values) EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
}

}  // namespace
}  // namespace bismo

// Cross-cutting property sweeps: parameterized invariants spanning module
// boundaries (FFT adjoints across sizes, imaging invariants across source
// grids, EPE behaviour across thresholds, checkpoint round trips across
// shapes).  These complement the per-module unit tests with the kind of
// randomized contracts the numerical core must uphold everywhere.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "fft/fft.hpp"
#include "io/grid_io.hpp"
#include "litho/abbe.hpp"
#include "math/grid_ops.hpp"
#include "math/rng.hpp"
#include "metrics/epe.hpp"
#include "test_util.hpp"

namespace bismo {
namespace {

// ---------------------------------------------------------------- FFT ----

class FftAdjointSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftAdjointSweep, ForwardAdjointIdentityHolds) {
  const std::size_t n = GetParam();
  Rng rng(9000 + n);
  const ComplexGrid x = testing::random_complex_grid(rng, n, n);
  const ComplexGrid y = testing::random_complex_grid(rng, n, n);
  const auto lhs = cdot(fft2_copy(x), y);
  const auto rhs = cdot(x, fft2_adjoint(y));
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-8 * std::abs(lhs) + 1e-9) << n;
}

TEST_P(FftAdjointSweep, ParsevalHolds) {
  const std::size_t n = GetParam();
  Rng rng(9100 + n);
  const ComplexGrid x = testing::random_complex_grid(rng, n, n);
  const double spatial = norm2_sq(x);
  const double spectral =
      norm2_sq(fft2_copy(x)) / static_cast<double>(x.size());
  EXPECT_NEAR(spatial, spectral, 1e-9 * spatial) << n;
}

// Power-of-two and mixed-radix sizes alike.
INSTANTIATE_TEST_SUITE_P(Sizes, FftAdjointSweep,
                         ::testing::Values<std::size_t>(8, 12, 16, 24, 32,
                                                        48, 64, 96));

// ------------------------------------------------------------- imaging ----

class AbbeInvariantSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AbbeInvariantSweep, ClearFieldIsUnityForAnySourceGrid) {
  const std::size_t nj = GetParam();
  OpticsConfig optics;
  optics.mask_dim = 32;
  optics.pixel_nm = 8.0;
  const SourceGeometry geometry(nj, optics);
  const AbbeImaging abbe(optics, geometry);
  SourceSpec spec;
  spec.shape = SourceShape::kConventional;
  spec.sigma_out = 0.9;
  const RealGrid j = make_source(geometry, spec);
  ComplexGrid o = to_complex(RealGrid(32, 32, 1.0));
  fft2(o);
  const AbbeAerial aerial = abbe.aerial(o, j);
  for (double v : aerial.intensity) EXPECT_NEAR(v, 1.0, 1e-9) << "Nj=" << nj;
}

TEST_P(AbbeInvariantSweep, IntensityInvariantUnderSourceScaling) {
  const std::size_t nj = GetParam();
  OpticsConfig optics;
  optics.mask_dim = 32;
  optics.pixel_nm = 8.0;
  const SourceGeometry geometry(nj, optics);
  const AbbeImaging abbe(optics, geometry);
  SourceSpec spec;
  const RealGrid j = make_source(geometry, spec);
  Rng rng(9200 + nj);
  ComplexGrid o = to_complex(rng.uniform_grid(32, 32, 0.0, 1.0));
  fft2(o);
  const RealGrid a = abbe.aerial(o, j).intensity;
  const RealGrid b = abbe.aerial(o, j * 0.37).intensity;
  EXPECT_LT(testing::max_diff(a, b), 1e-10) << "Nj=" << nj;
}

INSTANTIATE_TEST_SUITE_P(SourceGrids, AbbeInvariantSweep,
                         ::testing::Values<std::size_t>(3, 5, 7, 9, 11));

// ----------------------------------------------------------------- EPE ----

class EpeThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(EpeThresholdSweep, ViolationsMonotoneInThreshold) {
  // A fixed displaced print: tightening the constraint can only add
  // violations.
  const double threshold = GetParam();
  const std::size_t n = 48;
  RealGrid target(n, n, 0.0);
  RealGrid print(n, n, 0.0);
  for (std::size_t r = 12; r < 36; ++r) {
    for (std::size_t c = 12; c < 36; ++c) {
      target(r, c) = 1.0;
      print(r, c + 3) = 1.0;  // 3 px = 12 nm shift at 4 nm pixels
    }
  }
  EpeConfig tight;
  tight.threshold_nm = threshold;
  EpeConfig loose;
  loose.threshold_nm = threshold + 8.0;
  const EpeResult rt = measure_epe(print, target, 4.0, tight);
  const EpeResult rl = measure_epe(print, target, 4.0, loose);
  EXPECT_GE(rt.violations, rl.violations) << "threshold " << threshold;
  EXPECT_EQ(rt.samples, rl.samples);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, EpeThresholdSweep,
                         ::testing::Values(4.0, 8.0, 11.0, 15.0));

// --------------------------------------------------------- checkpoints ----

class GridIoShapeSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(GridIoShapeSweep, RoundTripsAcrossShapes) {
  const auto [rows, cols] = GetParam();
  Rng rng(9300 + rows * 17 + cols);
  const RealGrid g = rng.uniform_grid(rows, cols, -1e3, 1e3);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bismo_prop_" + std::to_string(rows) + "x" + std::to_string(cols) +
        ".bsmg"))
          .string();
  save_grid(path, g);
  const RealGrid back = load_grid(path);
  ASSERT_EQ(back.rows(), rows);
  ASSERT_EQ(back.cols(), cols);
  for (std::size_t i = 0; i < g.size(); ++i) ASSERT_EQ(back[i], g[i]);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GridIoShapeSweep,
    ::testing::Values(std::make_pair<std::size_t, std::size_t>(1, 1),
                      std::make_pair<std::size_t, std::size_t>(1, 64),
                      std::make_pair<std::size_t, std::size_t>(64, 1),
                      std::make_pair<std::size_t, std::size_t>(9, 9),
                      std::make_pair<std::size_t, std::size_t>(128, 128)));

// -------------------------------------------------------------- pupil ----

class PupilShiftSweep : public ::testing::TestWithParam<double> {};

TEST_P(PupilShiftSweep, PassbandNeverExceedsUnshiftedDiscArea) {
  // The shifted disc has the same radius; on the periodic frequency grid
  // its bin count can differ only by discretization, never grossly.
  OpticsConfig optics;
  optics.mask_dim = 64;
  optics.pixel_nm = 8.0;
  const Pupil pupil(optics);
  const double fc = optics.cutoff_frequency();
  const double frac = GetParam();
  const std::size_t base = pupil.shifted_passband(0.0, 0.0).indices.size();
  const PassBand band = pupil.shifted_passband(frac * fc, -0.5 * frac * fc);
  EXPECT_GT(band.indices.size(), base / 2);
  EXPECT_LT(band.indices.size(), base * 2);
}

INSTANTIATE_TEST_SUITE_P(ShiftFractions, PupilShiftSweep,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace bismo

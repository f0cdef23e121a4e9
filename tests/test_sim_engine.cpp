// Unified imaging-engine layer tests (src/sim/):
//
//   * per-thread workspace field agrees bitwise with the per-point
//     reference (sparse IFFT with row skipping is exact, not approximate);
//   * `aerial()` and `evaluate()` are bitwise identical across thread
//     counts (serial, 1, 4) -- the ordered-reduction guarantee of
//     parallel/reduction.hpp, now locked in through the sim layer;
//   * gradcheck through the workspace path for both Abbe and Hopkins
//     engines (pooled, shared workspaces), so the refactor cannot silently
//     break the hand-derived adjoints;
//   * Fft2dPlan handles match the free-function transforms;
//   * ScenarioBatch matches per-corner evaluation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "fft/fft.hpp"
#include "grad/abbe_grad.hpp"
#include "grad/gradcheck.hpp"
#include "grad/hopkins_grad.hpp"
#include "imaging_reference.hpp"
#include "litho/abbe.hpp"
#include "litho/hopkins.hpp"
#include "math/grid_ops.hpp"
#include "math/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/scenario.hpp"
#include "sim/workspace.hpp"
#include "test_util.hpp"

namespace bismo {
namespace {

using testing::max_diff;
using testing::random_complex_grid;

OpticsConfig small_optics() {
  OpticsConfig o;
  o.mask_dim = 64;
  o.pixel_nm = 8.0;
  return o;
}

RealGrid cross_target(std::size_t n) {
  RealGrid t(n, n, 0.0);
  for (std::size_t r = n / 2 - 3; r < n / 2 + 3; ++r) {
    for (std::size_t c = n / 4; c < 3 * n / 4; ++c) t(r, c) = 1.0;
  }
  for (std::size_t r = n / 4; r < 3 * n / 4; ++r) {
    for (std::size_t c = n / 2 - 3; c < n / 2 + 3; ++c) t(r, c) = 1.0;
  }
  return t;
}

ComplexGrid random_spectrum(std::uint64_t seed) {
  Rng rng(seed);
  ComplexGrid o = testing::random_complex_grid(rng, 64, 64);
  return o;
}

// ---- Fft2dPlan vs free functions -------------------------------------------

TEST(Fft2dPlan, MatchesFreeFunctionsBitwise) {
  for (std::size_t n : {8u, 12u}) {  // radix-2 and mixed-radix paths
    Rng rng(7 + n);
    const ComplexGrid g0 = testing::random_complex_grid(rng, n, n);
    const Fft2dPlan plan(n, n);
    std::vector<std::complex<double>> scratch(plan.scratch_size());

    ComplexGrid a = g0;
    fft2(a);
    ComplexGrid b = g0;
    plan.forward(b, scratch.data());
    EXPECT_EQ(a, b) << "forward n=" << n;

    ComplexGrid c = g0;
    ifft2(c);
    ComplexGrid d = g0;
    plan.inverse(d, scratch.data());
    EXPECT_EQ(c, d) << "inverse n=" << n;
  }
}

// ---- Workspace field vs the per-point reference ---------------------------

TEST(SimWorkspace, FieldIntoMatchesReferenceFieldBitwise) {
  // Real band values: the band product is exact on every backend.
  const OpticsConfig optics = small_optics();
  const SourceGeometry geometry(7, optics);
  const AbbeImaging abbe(optics, geometry);
  const ComplexGrid o = random_spectrum(11);

  sim::SimWorkspace ws;
  for (std::size_t c = 0; c < abbe.components(); c += 5) {
    const ComplexGrid want = reference::field(o, abbe.component_band(c));
    ws.ensure(optics.mask_dim);
    abbe.field_into(o, c, ws);
    EXPECT_EQ(want, ws.field()) << "component " << c;
  }
}

TEST(SimWorkspace, FieldIntoMatchesReferenceWithDefocusValuesBitwise) {
  // Complex band values: the scalar kernel's product is std::complex's, so
  // the bits agree there; AVX2 differs at 1e-18 (FusedPipeline covers it).
  const testing::BackendGuard backend("scalar");
  OpticsConfig optics = small_optics();
  optics.defocus_nm = 60.0;  // complex pass-band values
  const SourceGeometry geometry(7, optics);
  const AbbeImaging abbe(optics, geometry);
  const ComplexGrid o = random_spectrum(12);

  sim::SimWorkspace ws;
  for (std::size_t c = 0; c < abbe.components(); c += 7) {
    const ComplexGrid want = reference::field(o, abbe.component_band(c));
    ws.ensure(optics.mask_dim);
    abbe.field_into(o, c, ws);
    EXPECT_EQ(want, ws.field()) << "component " << c;
  }
}

TEST(SimWorkspace, WorkspaceReuseAcrossComponentsIsClean) {
  // The all-zero invariant of the spectrum assembly buffer must survive
  // consecutive components with different pass-bands.
  const OpticsConfig optics = small_optics();
  const SourceGeometry geometry(7, optics);
  const AbbeImaging abbe(optics, geometry);
  const ComplexGrid o = random_spectrum(13);

  sim::SimWorkspace ws;
  ws.ensure(optics.mask_dim);
  // Prime with a different component, then check another is unaffected.
  abbe.field_into(o, 0, ws);
  const std::size_t probe = abbe.components() / 2;
  abbe.field_into(o, probe, ws);
  EXPECT_EQ(reference::field(o, abbe.component_band(probe)), ws.field());
}

TEST(SimWorkspace, OccupiedRowsCoversAllBandBins) {
  const OpticsConfig optics = small_optics();
  const SourceGeometry geometry(7, optics);
  const AbbeImaging abbe(optics, geometry);
  for (std::size_t c = 0; c < abbe.components(); ++c) {
    const auto rows = sim::occupied_rows(abbe.passband(c).indices, 64);
    for (std::uint32_t bin : abbe.passband(c).indices) {
      const std::uint32_t r = bin / 64;
      EXPECT_TRUE(std::find(rows.begin(), rows.end(), r) != rows.end());
    }
    // Sorted and unique.
    for (std::size_t i = 1; i < rows.size(); ++i) {
      EXPECT_LT(rows[i - 1], rows[i]);
    }
  }
}

// ---- Determinism across thread counts --------------------------------------

class ThreadCountDeterminism : public ::testing::Test {
 protected:
  OpticsConfig optics = small_optics();
  SourceGeometry geometry{7, small_optics()};
  RealGrid target = cross_target(64);
  RealGrid source;
  RealGrid theta_m;
  RealGrid theta_j;

  void SetUp() override {
    SourceSpec spec;
    source = make_source(geometry, spec);
    Rng rng(99);
    theta_m = init_mask_params(target, {});
    for (auto& v : theta_m) v += rng.uniform(-0.3, 0.3);
    theta_j = init_source_params(source, {});
    for (auto& v : theta_j) v += rng.uniform(-0.5, 0.5);
  }
};

TEST_F(ThreadCountDeterminism, AbbeAerialBitwiseIdentical) {
  const ComplexGrid o = random_spectrum(21);
  const AbbeImaging serial(optics, geometry, nullptr);
  const RealGrid reference = serial.aerial(o, source).intensity;
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const AbbeImaging pooled(optics, geometry, &pool);
    const RealGrid got = pooled.aerial(o, source).intensity;
    EXPECT_EQ(reference, got) << threads << " threads";
  }
}

TEST_F(ThreadCountDeterminism, AbbeEvaluateBitwiseIdentical) {
  const AbbeImaging serial(optics, geometry, nullptr);
  const AbbeGradientEngine serial_engine(serial, target);
  const SmoGradient reference =
      serial_engine.evaluate(theta_m, theta_j, GradRequest{});
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const AbbeImaging pooled(optics, geometry, &pool);
    const AbbeGradientEngine engine(pooled, target);
    const SmoGradient got = engine.evaluate(theta_m, theta_j, GradRequest{});
    EXPECT_EQ(reference.loss, got.loss) << threads << " threads";
    EXPECT_EQ(reference.grad_theta_m, got.grad_theta_m)
        << threads << " threads";
    EXPECT_EQ(reference.grad_theta_j, got.grad_theta_j)
        << threads << " threads";
  }
}

TEST_F(ThreadCountDeterminism, HopkinsAerialAndGradientBitwiseIdentical) {
  const AbbeImaging abbe(optics, geometry);
  const ComplexGrid o = random_spectrum(22);

  const SocsDecomposition socs(abbe, source, 12);
  const HopkinsImaging serial(optics, socs);
  const HopkinsGradientEngine serial_engine(serial, target);
  const RealGrid ref_aerial = serial.aerial(o);
  const SmoGradient ref_grad = serial_engine.evaluate(theta_m);

  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const HopkinsImaging pooled(optics, SocsDecomposition(abbe, source, 12),
                                &pool);
    const HopkinsGradientEngine engine(pooled, target);
    EXPECT_EQ(ref_aerial, pooled.aerial(o)) << threads << " threads";
    const SmoGradient got = engine.evaluate(theta_m);
    EXPECT_EQ(ref_grad.grad_theta_m, got.grad_theta_m)
        << threads << " threads";
  }
}

// ---- Gradcheck through the pooled workspace path ---------------------------

TEST(WorkspaceGradCheck, AbbePooledMaskAndSourceGradients) {
  ThreadPool pool(4);
  const OpticsConfig optics = small_optics();
  const SourceGeometry geometry(7, optics);
  const auto workspaces = std::make_shared<sim::WorkspaceSet>();
  const AbbeImaging abbe(optics, geometry, &pool, workspaces);
  const RealGrid target = cross_target(64);
  const AbbeGradientEngine engine(abbe, target);

  Rng rng(1234);
  RealGrid theta_m = init_mask_params(target, {});
  for (auto& v : theta_m) v += rng.uniform(-0.3, 0.3);
  SourceSpec spec;
  RealGrid theta_j = init_source_params(make_source(geometry, spec), {});
  for (auto& v : theta_j) v += rng.uniform(-0.5, 0.5);

  const SmoGradient g = engine.evaluate(theta_m, theta_j, GradRequest{});
  auto loss_m = [&](const RealGrid& tm) {
    return engine.loss_only(tm, theta_j).total;
  };
  const GradCheckResult rm =
      check_gradient(loss_m, theta_m, g.grad_theta_m, rng, 16, 1e-4);
  EXPECT_LT(rm.max_rel_error, 1e-3);

  auto loss_j = [&](const RealGrid& tj) {
    return engine.loss_only(theta_m, tj).total;
  };
  const GradCheckResult rj =
      check_gradient(loss_j, theta_j, g.grad_theta_j, rng, 16, 1e-4);
  EXPECT_LT(rj.max_rel_error, 1e-3);
}

TEST(WorkspaceGradCheck, HopkinsPooledSharedWorkspaceMaskGradient) {
  ThreadPool pool(4);
  const OpticsConfig optics = small_optics();
  const SourceGeometry geometry(7, optics);
  const auto workspaces = std::make_shared<sim::WorkspaceSet>();
  const AbbeImaging abbe(optics, geometry, &pool, workspaces);
  SourceSpec spec;
  const RealGrid source = make_source(geometry, spec);
  // The Hopkins engine shares the Abbe engine's workspaces, the exact
  // configuration AM-SMO(Abbe-Hopkins) runs per cycle.
  const SocsDecomposition socs(abbe, source, 12);
  const HopkinsImaging hopkins(optics, socs, &pool, workspaces);
  const RealGrid target = cross_target(64);
  const HopkinsGradientEngine engine(hopkins, target);

  Rng rng(4321);
  RealGrid theta_m = init_mask_params(target, {});
  for (auto& v : theta_m) v += rng.uniform(-0.3, 0.3);

  const SmoGradient g = engine.evaluate(theta_m);
  auto loss_fn = [&](const RealGrid& tm) { return engine.loss_only(tm).total; };
  const GradCheckResult r =
      check_gradient(loss_fn, theta_m, g.grad_theta_m, rng, 16, 1e-4);
  EXPECT_LT(r.max_rel_error, 1e-3);
}

TEST(WorkspaceGradCheck, AbbeDefocusPooledGradient) {
  // Complex pass-band values through the workspace adjoint (conj(H) path).
  ThreadPool pool(2);
  OpticsConfig optics = small_optics();
  optics.defocus_nm = 60.0;
  const SourceGeometry geometry(7, optics);
  const AbbeImaging abbe(optics, geometry, &pool);
  const RealGrid target = cross_target(64);
  const AbbeGradientEngine engine(abbe, target);

  Rng rng(555);
  RealGrid theta_m = init_mask_params(target, {});
  for (auto& v : theta_m) v += rng.uniform(-0.3, 0.3);
  SourceSpec spec;
  RealGrid theta_j = init_source_params(make_source(geometry, spec), {});
  for (auto& v : theta_j) v += rng.uniform(-0.5, 0.5);

  const SmoGradient g = engine.evaluate(theta_m, theta_j, GradRequest{});
  auto loss_m = [&](const RealGrid& tm) {
    return engine.loss_only(tm, theta_j).total;
  };
  const GradCheckResult r =
      check_gradient(loss_m, theta_m, g.grad_theta_m, rng, 12, 1e-4);
  EXPECT_LT(r.max_rel_error, 1e-3);
}

// ---- ScenarioBatch ----------------------------------------------------------

TEST(ScenarioBatch, MatchesPerCornerEvaluation) {
  const OpticsConfig optics = small_optics();
  const SourceGeometry geometry(7, optics);
  SourceSpec spec;
  const RealGrid source = make_source(geometry, spec);
  const ComplexGrid o = random_spectrum(31);

  const std::vector<sim::Scenario> scenarios = {
      {0.98, 0.0}, {1.0, 0.0}, {1.02, 0.0}, {1.0, 80.0}};
  const sim::ScenarioBatch batch(optics, geometry, scenarios);
  EXPECT_EQ(batch.distinct_defocus_count(), 2u);
  const std::vector<RealGrid> got = batch.aerial(o, source);
  ASSERT_EQ(got.size(), scenarios.size());

  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    OpticsConfig corner = optics;
    corner.defocus_nm = scenarios[s].defocus_nm;
    const AbbeImaging abbe(corner, geometry);
    const double d = scenarios[s].dose;
    const RealGrid expect = abbe.aerial(o, source).intensity * (d * d);
    EXPECT_LE(max_diff(expect, got[s]), 1e-12) << "scenario " << s;
  }
}

TEST(ScenarioBatch, DedupsAnalyticallyEqualDefocusCorners) {
  const OpticsConfig optics = small_optics();
  const SourceGeometry geometry(7, optics);

  // Computed corners that are analytically zero / analytically 80 but
  // carry double-rounding noise: exact comparison would build four
  // engines for two physical conditions.
  const double noisy_zero = (0.1 + 0.2) - 0.3;  // 5.55e-17, != 0.0
  ASSERT_NE(noisy_zero, 0.0);
  const double noisy_eighty = 80.0 * ((1.0 / 3.0) * 3.0);
  const std::vector<sim::Scenario> scenarios = {
      {1.0, 0.0}, {0.98, noisy_zero}, {1.0, 80.0}, {1.0, noisy_eighty}};
  const sim::ScenarioBatch batch(optics, geometry, scenarios);
  EXPECT_EQ(batch.distinct_defocus_count(), 2u);

  // Same-dose scenarios of one deduplicated condition share the engine
  // pass, so their aerials are bitwise identical.
  const RealGrid source = make_source(geometry, SourceSpec{});
  const ComplexGrid o = random_spectrum(21);
  const std::vector<RealGrid> got = batch.aerial(o, source);
  EXPECT_TRUE(got[2] == got[3]);

  // Genuinely distinct corners must stay distinct.
  const sim::ScenarioBatch two(optics, geometry, {{1.0, 0.0}, {1.0, 25.0}});
  EXPECT_EQ(two.distinct_defocus_count(), 2u);
}

}  // namespace
}  // namespace bismo

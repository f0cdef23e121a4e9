// Fused imaging-pipeline tests (src/sim/pipeline.hpp + the
// `pow2_cols_fused` kernel entry):
//
//   * the fused column pass (gather + transform + scale + |.|^2 epilogues
//     in one kernel chain) agrees with the staged per-stage sequence to
//     <= 1e-12 on every available backend, across square, rectangular,
//     seeded-adjoint, and row-sparse configurations;
//   * non-power-of-two (Bluestein) and sub-8 shapes take the exact staged
//     fallback inside the same entry point (bitwise equal to the staged
//     sequence);
//   * the full engine stack with fusion on/off agrees to <= 1e-12,
//     and each mode is bitwise deterministic across thread counts and
//     repeated runs;
//   * gradcheck passes through the fused adjoint chain (mask + source
//     gradients for Abbe, mask for Hopkins sharing workspaces).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "fft/fft.hpp"
#include "fft/kernels/kernel.hpp"
#include "fft/kernels/plan.hpp"
#include "grad/abbe_grad.hpp"
#include "grad/gradcheck.hpp"
#include "grad/hopkins_grad.hpp"
#include "litho/abbe.hpp"
#include "litho/hopkins.hpp"
#include "math/grid_ops.hpp"
#include "math/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/pipeline.hpp"
#include "sim/workspace.hpp"
#include "test_util.hpp"

namespace bismo {
namespace {

using testing::max_diff;
using testing::random_complex_grid;

/// Restore the process fusion mode and FFT backend on scope exit: the
/// suite mutates both globals, and sibling suites assume the defaults.
class GlobalModeGuard {
 public:
  GlobalModeGuard()
      : fusion_(sim::fusion_enabled()), backend_(fft::backend_name()) {}
  ~GlobalModeGuard() {
    sim::set_fusion_enabled(fusion_);
    fft::set_backend(backend_);
  }

 private:
  bool fusion_;
  std::string backend_;
};

OpticsConfig small_optics(std::size_t dim = 64) {
  OpticsConfig o;
  o.mask_dim = dim;
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

RealGrid random_real_grid(Rng& rng, std::size_t rows, std::size_t cols) {
  RealGrid g(rows, cols);
  for (auto& v : g) v = rng.uniform(-1.0, 1.0);
  return g;
}

/// Staged reference of the fused column pass: materialize the (flagged,
/// optionally seeded) input into `dst`, run the per-stage ops in the
/// documented order, and return the weighted-norm reduction (0 when off).
double staged_cols_reference(const Fft2dPlan& plan,
                             const fft_detail::ColsFusion& fusion,
                             ComplexGrid& dst, bool inverse,
                             std::complex<double>* scratch) {
  const fft::FftKernel& kernel = fft::active_kernel();
  const std::size_t cols = dst.cols();
  for (std::size_t r = 0; r < dst.rows(); ++r) {
    std::complex<double>* row = dst.data() + r * cols;
    const std::complex<double>* src = fusion.src + r * cols;
    if (fusion.row_nonzero != nullptr && fusion.row_nonzero[r] == 0) {
      std::fill_n(row, cols, std::complex<double>{});
    } else if (fusion.seed != nullptr) {
      kernel.seed_cotangent(row, fusion.seed + r * cols, src, cols,
                            fusion.seed_scale);
    } else {
      std::copy(src, src + cols, row);
    }
  }
  plan.transform_cols(dst, inverse, scratch);
  if (fusion.scale != 1.0) kernel.scale(dst.data(), dst.size(), fusion.scale);
  if (fusion.norm_acc != nullptr) {
    kernel.accumulate_norm(fusion.norm_acc, dst.data(), dst.size(),
                           fusion.norm_weight);
  }
  if (fusion.wns_weights != nullptr) {
    return kernel.weighted_norm_sum(fusion.wns_weights, dst.data(),
                                    dst.size());
  }
  if (fusion.seed != nullptr && fusion.wns_out != nullptr) {
    // Seeded input reduction: sum seed * |src|^2 over the logical input.
    double acc = 0.0;
    for (std::size_t r = 0; r < dst.rows(); ++r) {
      if (fusion.row_nonzero != nullptr && fusion.row_nonzero[r] == 0) {
        continue;
      }
      acc += kernel.weighted_norm_sum(fusion.seed + r * cols,
                                      fusion.src + r * cols, cols);
    }
    return acc;
  }
  return 0.0;
}

// ---- Fused column pass vs staged ops, per backend ---------------------------

TEST(FusedColsPass, MatchesStagedAcrossBackendsAndShapes) {
  GlobalModeGuard guard;
  const struct {
    std::size_t rows, cols;
  } shapes[] = {{8, 8}, {16, 8}, {32, 16}, {64, 64}};

  for (const std::string& backend : fft::available_backends()) {
    ASSERT_TRUE(fft::set_backend(backend));
    for (const auto& shape : shapes) {
      Rng rng(17 * shape.rows + shape.cols);
      const ComplexGrid src =
          random_complex_grid(rng, shape.rows, shape.cols);
      // Flag roughly half the rows zero (the fused gather must emit exact
      // zeros for them without reading the source).
      std::vector<std::uint8_t> flags(shape.rows);
      for (auto& f : flags) f = rng.uniform(0.0, 1.0) < 0.5 ? 1 : 0;
      flags[0] = 1;  // keep at least one live row

      const Fft2dPlan plan(shape.rows, shape.cols);
      ASSERT_TRUE(plan.fused_cols());
      std::vector<std::complex<double>> scratch(plan.scratch_size());

      for (bool inverse : {false, true}) {
        fft_detail::ColsFusion fusion;
        fusion.src = src.data();
        fusion.row_nonzero = flags.data();
        fusion.scale = 1.0 / static_cast<double>(src.size());
        RealGrid acc_fused(shape.rows, shape.cols, 0.25);
        RealGrid acc_staged = acc_fused;
        fusion.norm_weight = 0.75;

        ComplexGrid fused(shape.rows, shape.cols);
        fusion.norm_acc = acc_fused.data();
        plan.transform_cols_fused(fusion, fused, inverse, scratch.data());

        ComplexGrid staged(shape.rows, shape.cols);
        fusion.norm_acc = acc_staged.data();
        staged_cols_reference(plan, fusion, staged, inverse, scratch.data());

        EXPECT_LE(max_diff(fused, staged), 1e-12)
            << backend << " " << shape.rows << "x" << shape.cols
            << " inverse=" << inverse;
        EXPECT_LE(max_diff(acc_fused, acc_staged), 1e-12)
            << backend << " norm epilogue " << shape.rows << "x"
            << shape.cols;
      }
    }
  }
}

TEST(FusedColsPass, SeededAdjointAndWnsMatchStagedAcrossBackends) {
  GlobalModeGuard guard;
  for (const std::string& backend : fft::available_backends()) {
    ASSERT_TRUE(fft::set_backend(backend));
    for (std::size_t n : {8u, 16u, 64u}) {
      Rng rng(23 + n);
      const ComplexGrid field = random_complex_grid(rng, n, n);
      const RealGrid dldi = random_real_grid(rng, n, n);
      const RealGrid wns_w = random_real_grid(rng, n, n);
      const Fft2dPlan plan(n, n);
      std::vector<std::complex<double>> scratch(plan.scratch_size());

      // Seeded forward-adjoint pass (cotangent seed folded into the
      // gather), with the input-side wns reduction riding on the same
      // loads: *wns_out = sum dldi * |field|^2, unscaled by seed_scale.
      fft_detail::ColsFusion fusion;
      fusion.src = field.data();
      fusion.seed = dldi.data();
      fusion.seed_scale = 1.75;
      double seed_wns_fused = -1.0;
      fusion.wns_out = &seed_wns_fused;
      ComplexGrid fused(n, n);
      plan.transform_cols_fused(fusion, fused, /*inverse=*/false,
                                scratch.data());
      ComplexGrid staged(n, n);
      const double seed_wns_staged = staged_cols_reference(
          plan, fusion, staged, /*inverse=*/false, scratch.data());
      EXPECT_LE(max_diff(fused, staged), 1e-12) << backend << " seed n=" << n;
      EXPECT_NEAR(seed_wns_fused, seed_wns_staged,
                  1e-12 * std::max(1.0, std::abs(seed_wns_staged)))
          << backend << " seeded wns n=" << n;

      // Weighted-norm-sum epilogue (the fused source-gradient reduction).
      fft_detail::ColsFusion wns_fusion;
      wns_fusion.src = field.data();
      wns_fusion.scale = 1.0 / static_cast<double>(field.size());
      wns_fusion.wns_weights = wns_w.data();
      double wns_fused = -1.0;
      wns_fusion.wns_out = &wns_fused;
      ComplexGrid out(n, n);
      plan.transform_cols_fused(wns_fusion, out, /*inverse=*/true,
                                scratch.data());
      ComplexGrid out_ref(n, n);
      const double wns_staged = staged_cols_reference(
          plan, wns_fusion, out_ref, /*inverse=*/true, scratch.data());
      const double tol = 1e-12 * std::max(1.0, std::abs(wns_staged));
      EXPECT_NEAR(wns_fused, wns_staged, tol) << backend << " wns n=" << n;
    }
  }
}

TEST(FusedColsPass, BluesteinAndTinyShapesTakeExactStagedFallback) {
  // Shapes without fused kernels (non-pow2 rows, rows < 8) run the staged
  // sequence inside transform_cols_fused -- bitwise, not approximately.
  for (std::size_t rows : {4u, 12u, 48u}) {
    Rng rng(31 + rows);
    const std::size_t cols = 16;
    const ComplexGrid src = random_complex_grid(rng, rows, cols);
    const Fft2dPlan plan(rows, cols);
    EXPECT_FALSE(plan.fused_cols()) << rows;
    std::vector<std::complex<double>> scratch(plan.scratch_size());

    fft_detail::ColsFusion fusion;
    fusion.src = src.data();
    fusion.scale = 0.5;
    RealGrid acc_a(rows, cols, 0.0);
    RealGrid acc_b(rows, cols, 0.0);
    fusion.norm_weight = 2.0;

    ComplexGrid a(rows, cols);
    fusion.norm_acc = acc_a.data();
    plan.transform_cols_fused(fusion, a, /*inverse=*/true, scratch.data());
    ComplexGrid b(rows, cols);
    fusion.norm_acc = acc_b.data();
    staged_cols_reference(plan, fusion, b, /*inverse=*/true, scratch.data());

    EXPECT_EQ(a, b) << "rows=" << rows;
    EXPECT_EQ(acc_a, acc_b) << "rows=" << rows;
  }
}

// ---- Engine stack: fused vs staged mode -------------------------------------

TEST(FusedPipeline, ForwardFieldMatchesStagedReference) {
  GlobalModeGuard guard;
  const OpticsConfig optics = small_optics();
  const SourceGeometry geometry(7, optics);
  const AbbeImaging abbe(optics, geometry);
  Rng rng(41);
  const ComplexGrid o = random_complex_grid(rng, 64, 64);
  const RealGrid weights = random_real_grid(rng, 64, 64);

  for (std::size_t c = 0; c < abbe.components(); c += 5) {
    const sim::BandRef band = abbe.component_band(c);

    // Staged mode must reproduce the legacy staged op sequence bitwise.
    sim::set_fusion_enabled(false);
    sim::SimWorkspace staged_ws;
    staged_ws.ensure(optics.mask_dim);
    ASSERT_FALSE(staged_ws.pipeline().fused());
    RealGrid acc_staged(64, 64, 0.0);
    const double wns_staged = staged_ws.forward_field(
        o, band, &acc_staged, 0.5, weights.data());
    sim::SimWorkspace legacy_ws;
    legacy_ws.ensure(optics.mask_dim);
    legacy_ws.sparse_inverse_field(o, band.bins, band.vals, band.nbins,
                                   band.rows, band.nrows);
    EXPECT_EQ(legacy_ws.field(), staged_ws.field()) << "component " << c;

    // Fused mode agrees to <= 1e-12 on field, accumulator, and reduction.
    sim::set_fusion_enabled(true);
    sim::SimWorkspace fused_ws;
    fused_ws.ensure(optics.mask_dim);
    ASSERT_TRUE(fused_ws.pipeline().fused());
    RealGrid acc_fused(64, 64, 0.0);
    const double wns_fused =
        fused_ws.forward_field(o, band, &acc_fused, 0.5, weights.data());

    EXPECT_LE(max_diff(fused_ws.field(), staged_ws.field()), 1e-12)
        << "component " << c;
    EXPECT_LE(max_diff(acc_fused, acc_staged), 1e-12) << "component " << c;
    EXPECT_NEAR(wns_fused, wns_staged,
                1e-12 * std::max(1.0, std::abs(wns_staged)))
        << "component " << c;
  }
}

TEST(FusedPipeline, WorkspaceRebuildsWhenModeToggles) {
  GlobalModeGuard guard;
  sim::set_fusion_enabled(true);
  sim::SimWorkspace ws;
  ws.ensure(64);
  EXPECT_TRUE(ws.pipeline().fused());
  sim::set_fusion_enabled(false);
  EXPECT_TRUE(ws.pipeline().stale());
  ws.ensure(64);
  EXPECT_FALSE(ws.pipeline().fused());
  EXPECT_FALSE(ws.pipeline().stale());
}

TEST(FusedPipeline, AerialAndGradientAgreeAcrossModes) {
  GlobalModeGuard guard;
  const OpticsConfig optics = small_optics();
  const SourceGeometry geometry(7, optics);
  const RealGrid target = cross_target(64);
  Rng rng(51);
  RealGrid theta_m = init_mask_params(target, {});
  for (auto& v : theta_m) v += rng.uniform(-0.3, 0.3);
  RealGrid theta_j =
      init_source_params(make_source(geometry, SourceSpec{}), {});
  for (auto& v : theta_j) v += rng.uniform(-0.5, 0.5);

  // Each call runs on its own fresh engine so no mode is ever served from
  // images another call cached: `aerial` and the mask-only evaluation run
  // the transform path, the full evaluation fills and serves.
  SmoGradient by_mode[2];
  SmoGradient mask_by_mode[2];
  RealGrid aerial_by_mode[2];
  GradRequest mask_only;
  mask_only.source = false;
  for (int fused = 0; fused < 2; ++fused) {
    sim::set_fusion_enabled(fused == 1);
    const AbbeImaging abbe(optics, geometry);
    aerial_by_mode[fused] =
        AbbeGradientEngine(abbe, target).aerial(theta_m, theta_j);
    mask_by_mode[fused] =
        AbbeGradientEngine(abbe, target).evaluate(theta_m, theta_j, mask_only);
    by_mode[fused] =
        AbbeGradientEngine(abbe, target).evaluate(theta_m, theta_j,
                                                  GradRequest{});
  }

  EXPECT_LE(max_diff(aerial_by_mode[0], aerial_by_mode[1]), 1e-12);
  for (const SmoGradient* g : {by_mode, mask_by_mode}) {
    EXPECT_NEAR(g[0].loss, g[1].loss,
                1e-12 * std::max(1.0, std::abs(g[0].loss)));
    EXPECT_LE(max_diff(g[0].grad_theta_m, g[1].grad_theta_m), 1e-10);
  }
  EXPECT_LE(max_diff(by_mode[0].grad_theta_j, by_mode[1].grad_theta_j),
            1e-10);
}

TEST(FusedPipeline, BluesteinGridFallsBackIdenticallyInBothModes) {
  // 48 is not a power of two: the pipeline has no fused chain for it, so
  // fused mode must take the exact staged path -- bitwise equal results.
  GlobalModeGuard guard;
  const OpticsConfig optics = small_optics(48);
  const SourceGeometry geometry(7, optics);
  Rng rng(61);
  const ComplexGrid o = random_complex_grid(rng, 48, 48);
  const RealGrid source = make_source(geometry, SourceSpec{});

  RealGrid by_mode[2];
  for (int fused = 0; fused < 2; ++fused) {
    sim::set_fusion_enabled(fused == 1);
    const AbbeImaging abbe(optics, geometry);
    by_mode[fused] = abbe.aerial(o, source).intensity;
  }
  EXPECT_EQ(by_mode[0], by_mode[1]);
}

// ---- Determinism ------------------------------------------------------------

TEST(FusedPipeline, FusedModeBitwiseDeterministicAcrossThreadCounts) {
  GlobalModeGuard guard;
  sim::set_fusion_enabled(true);
  const OpticsConfig optics = small_optics();
  const SourceGeometry geometry(7, optics);
  const RealGrid target = cross_target(64);
  Rng rng(71);
  RealGrid theta_m = init_mask_params(target, {});
  for (auto& v : theta_m) v += rng.uniform(-0.3, 0.3);
  RealGrid theta_j =
      init_source_params(make_source(geometry, SourceSpec{}), {});
  for (auto& v : theta_j) v += rng.uniform(-0.5, 0.5);

  const AbbeImaging serial(optics, geometry, nullptr);
  const AbbeGradientEngine serial_engine(serial, target);
  const SmoGradient reference =
      serial_engine.evaluate(theta_m, theta_j, GradRequest{});
  // Run-to-run repeatability on one engine (fixed backend + mode).
  const SmoGradient repeat =
      serial_engine.evaluate(theta_m, theta_j, GradRequest{});
  EXPECT_EQ(reference.grad_theta_m, repeat.grad_theta_m);
  EXPECT_EQ(reference.grad_theta_j, repeat.grad_theta_j);

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

// ---- Gradcheck through the fused adjoint ------------------------------------

TEST(FusedPipeline, GradcheckThroughFusedAdjointAbbe) {
  GlobalModeGuard guard;
  sim::set_fusion_enabled(true);
  ThreadPool pool(4);
  const OpticsConfig optics = small_optics();
  const SourceGeometry geometry(7, optics);
  const AbbeImaging abbe(optics, geometry, &pool);
  const RealGrid target = cross_target(64);
  const AbbeGradientEngine engine(abbe, target);

  Rng rng(81);
  RealGrid theta_m = init_mask_params(target, {});
  for (auto& v : theta_m) v += rng.uniform(-0.3, 0.3);
  RealGrid theta_j =
      init_source_params(make_source(geometry, SourceSpec{}), {});
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

TEST(FusedPipeline, GradcheckThroughFusedAdjointHopkins) {
  GlobalModeGuard guard;
  sim::set_fusion_enabled(true);
  ThreadPool pool(4);
  const OpticsConfig optics = small_optics();
  const SourceGeometry geometry(7, optics);
  const auto workspaces = std::make_shared<sim::WorkspaceSet>();
  const AbbeImaging abbe(optics, geometry, &pool, workspaces);
  const RealGrid source = make_source(geometry, SourceSpec{});
  const SocsDecomposition socs(abbe, source, 12);
  const HopkinsImaging hopkins(optics, socs, &pool, workspaces);
  const RealGrid target = cross_target(64);
  const HopkinsGradientEngine engine(hopkins, target);

  Rng rng(91);
  RealGrid theta_m = init_mask_params(target, {});
  for (auto& v : theta_m) v += rng.uniform(-0.3, 0.3);

  const SmoGradient g = engine.evaluate(theta_m);
  auto loss_fn = [&](const RealGrid& tm) {
    return engine.loss_only(tm).total;
  };
  const GradCheckResult r =
      check_gradient(loss_fn, theta_m, g.grad_theta_m, rng, 16, 1e-4);
  EXPECT_LT(r.max_rel_error, 1e-3);
}

}  // namespace
}  // namespace bismo

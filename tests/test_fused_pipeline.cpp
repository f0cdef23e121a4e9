// Fused imaging-pipeline tests (src/sim/pipeline.hpp + the
// `pow2_cols_fused` kernel entry):
//
//   * the fused column pass (gather + transform + scale + |.|^2 epilogues
//     in one kernel chain) agrees with the per-stage op sequence to
//     <= 1e-12 on every available backend, across square, rectangular,
//     seeded-adjoint, and row-sparse configurations;
//   * mixed-radix shapes (r * 2^k, odd r <= 15) run the fused mixed pass;
//     sub-8 power-of-two shapes have no fused pass and throw;
//   * the forward chain and the full engine stack agree with the per-point
//     reference (imaging_reference.hpp) to <= 1e-12 on the aerial image
//     and loss and <= 1e-10 on the gradients, on a band-convolution rig and
//     a field-capture rig, and are bitwise deterministic across thread
//     counts and repeated runs;
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
#include "sim/imaging_model.hpp"
#include "sim/workspace.hpp"
#include "imaging_reference.hpp"
#include "test_util.hpp"

namespace bismo {
namespace {

using testing::BackendGuard;
using testing::max_diff;
using testing::random_complex_grid;

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

/// Per-stage reference of the fused column pass: materialize the (flagged,
/// optionally seeded) input into `dst`, then run the per-stage ops in the
/// documented order.
void per_stage_cols_reference(const Fft2dPlan& plan,
                           const fft_detail::ColsFusion& fusion,
                           ComplexGrid& dst, bool inverse) {
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
  plan.transform_cols(dst, inverse);
  if (fusion.scale != 1.0) kernel.scale(dst.data(), dst.size(), fusion.scale);
  if (fusion.norm_acc != nullptr) {
    for (std::size_t i = 0; i < dst.size(); ++i) {
      fusion.norm_acc[i] += fusion.norm_weight * std::norm(dst[i]);
    }
  }
}

// ---- Fused column pass vs per-stage ops, per backend ------------------------

TEST(FusedColsPass, MatchesStagedAcrossBackendsAndShapes) {
  BackendGuard guard;
  const struct {
    std::size_t rows, cols;
  } shapes[] = {{8, 8},   {16, 8},  {32, 16}, {64, 64},
                {24, 24}, {48, 16}, {96, 96}, {24, 5}};

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
        plan.transform_cols_fused(fusion, fused, inverse);

        ComplexGrid staged(shape.rows, shape.cols);
        fusion.norm_acc = acc_staged.data();
        per_stage_cols_reference(plan, fusion, staged, inverse);

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

TEST(FusedColsPass, SeededAdjointMatchesStagedAcrossBackends) {
  BackendGuard guard;
  for (const std::string& backend : fft::available_backends()) {
    ASSERT_TRUE(fft::set_backend(backend));
    for (std::size_t n : {8u, 16u, 64u, 24u, 48u, 96u}) {
      Rng rng(23 + n);
      const ComplexGrid field = random_complex_grid(rng, n, n);
      const RealGrid dldi = random_real_grid(rng, n, n);
      const Fft2dPlan plan(n, n);

      // Seeded forward-adjoint pass (cotangent seed folded into the
      // gather).
      fft_detail::ColsFusion fusion;
      fusion.src = field.data();
      fusion.seed = dldi.data();
      fusion.seed_scale = 1.75;
      ComplexGrid fused(n, n);
      plan.transform_cols_fused(fusion, fused, /*inverse=*/false);
      ComplexGrid staged(n, n);
      per_stage_cols_reference(plan, fusion, staged, /*inverse=*/false);
      EXPECT_LE(max_diff(fused, staged), 1e-12) << backend << " seed n=" << n;
    }
  }
}

TEST(FusedColsPass, FusedColsGateCoversMixedRadixShapes) {
  // Mixed-radix row counts and power-of-two ones from 8 take the fused
  // pass; power-of-two ones below 8 have none, and lengths whose odd part
  // exceeds 15 are not planned at all.
  for (const std::size_t rows : {24u, 80u, 96u, 8u, 64u}) {
    EXPECT_TRUE(Fft1dPlan(rows).fused_columns()) << rows;
  }
  EXPECT_FALSE(Fft1dPlan(4).fused_columns());
  const ComplexGrid src(4, 16);
  ComplexGrid dst(4, 16);
  fft_detail::ColsFusion fusion;
  fusion.src = src.data();
  EXPECT_THROW(Fft2dPlan(4, 16).transform_cols_fused(fusion, dst, false),
               std::logic_error);
  for (const std::size_t rows : {34u, 100u}) {
    EXPECT_THROW(Fft2dPlan(rows, 16), std::invalid_argument) << rows;
  }
}

// ---- Engine stack vs the per-point reference -------------------------------

/// Pixel pitch at which a dim^2 grid's pass-bands are too wide for the
/// band-convolution adjoint, so gradients run the field-capture path.
constexpr double kFieldPathPixelNm = 16.0;

TEST(FusedPipeline, ForwardFieldMatchesReference) {
  for (const double pixel_nm : {8.0, kFieldPathPixelNm}) {
    OpticsConfig optics = small_optics();
    optics.pixel_nm = pixel_nm;
    const SourceGeometry geometry(7, optics);
    const AbbeImaging abbe(optics, geometry);
    Rng rng(41);
    const ComplexGrid o = random_complex_grid(rng, 64, 64);

    for (std::size_t c = 0; c < abbe.components(); c += 5) {
      const sim::BandRef band = abbe.component_band(c);
      sim::SimWorkspace ws;
      ws.ensure(optics.mask_dim);
      RealGrid acc(64, 64, 0.25);
      ws.forward_field(o, band, &acc, 0.5);

      const ComplexGrid want = reference::field(o, band);
      RealGrid want_acc(64, 64, 0.25);
      for (std::size_t i = 0; i < want.size(); ++i) {
        want_acc[i] += 0.5 * std::norm(want[i]);
      }
      EXPECT_LE(max_diff(ws.field(), want), 1e-12)
          << pixel_nm << " nm, component " << c;
      EXPECT_LE(max_diff(acc, want_acc), 1e-12)
          << pixel_nm << " nm, component " << c;
    }
  }
}

/// Aerial, loss and gradients of a dim x dim Abbe engine agree with the
/// per-point reference (1e-12 on aerial and loss, 1e-10 on the
/// gradients) in both adjoint modes: a band-convolution rig and a
/// field-capture rig.
void expect_matches_reference(std::size_t dim, std::uint64_t seed) {
  for (const double pixel_nm : {8.0, kFieldPathPixelNm}) {
    OpticsConfig optics = small_optics(dim);
    optics.pixel_nm = pixel_nm;
    const SourceGeometry geometry(7, optics);
    const RealGrid target = cross_target(dim);
    Rng rng(seed);
    RealGrid theta_m = init_mask_params(target, {});
    for (auto& v : theta_m) v += rng.uniform(-0.3, 0.3);
    RealGrid theta_j =
        init_source_params(make_source(geometry, SourceSpec{}), {});
    for (auto& v : theta_j) v += rng.uniform(-0.5, 0.5);

    // Each call runs on its own fresh engine, so each fills the image
    // cache and serves its own intensity from it: `aerial`, the mask-only
    // and the full evaluation are each checked from a fill.
    const AbbeImaging abbe(optics, geometry);
    const bool band_conv = sim::adjoint_uses_band_conv(abbe);
    ASSERT_EQ(band_conv, pixel_nm == 8.0) << dim;
    const std::string what = std::to_string(dim) +
                             (band_conv ? " band-conv" : " field-capture");
    const AbbeGradientEngine ref_engine(abbe, target);
    const SmoGradient want =
        reference::abbe_gradient(ref_engine, theta_m, theta_j);
    const RealGrid want_aerial =
        reference::abbe_forward(ref_engine, theta_m, theta_j).intensity;

    GradRequest mask_only;
    mask_only.source = false;
    const RealGrid aerial =
        AbbeGradientEngine(abbe, target).aerial(theta_m, theta_j);
    const SmoGradient mask_g =
        AbbeGradientEngine(abbe, target).evaluate(theta_m, theta_j, mask_only);
    const SmoGradient full_g =
        AbbeGradientEngine(abbe, target).evaluate(theta_m, theta_j,
                                                  GradRequest{});

    EXPECT_LE(max_diff(aerial, want_aerial), 1e-12) << what;
    for (const SmoGradient* g : {&mask_g, &full_g}) {
      EXPECT_NEAR(g->loss, want.loss, 1e-12 * std::max(1.0, std::abs(want.loss)))
          << what;
      EXPECT_LE(max_diff(g->grad_theta_m, want.grad_theta_m), 1e-10) << what;
    }
    EXPECT_LE(max_diff(full_g.grad_theta_j, want.grad_theta_j), 1e-10)
        << what;
  }
}

TEST(FusedPipeline, AerialAndGradientAgreeAcrossModes) {
  expect_matches_reference(64, 51);
}

TEST(FusedPipeline, MixedRadixGridRunsFused) {
  // 96 = 3 * 32 runs the mixed-radix plan: aerial and gradients match the
  // reference as closely as at 64^2, on both adjoint paths.
  expect_matches_reference(96, 63);
}

// ---- Determinism ------------------------------------------------------------

TEST(FusedPipeline, FusedModeBitwiseDeterministicAcrossThreadCounts) {
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
  // Run-to-run repeatability on one engine (fixed backend).
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

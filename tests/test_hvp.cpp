// Second-order machinery tests: the exact source HVP and mixed product of
// grad/hvp.hpp against their finite-difference oracles (grad/gradcheck),
// a densely assembled Hessian and the symmetric cross-derivative; operator
// properties (symmetry, linearity) that BiSMO-NMN/CG rely on; the fused
// one-sweep hypergradient; the two-seed adjoint_pass it runs on; the loss
// curvature d2L/dI2; and thread-count determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/bismo.hpp"
#include "core/problem.hpp"
#include "grad/abbe_grad.hpp"
#include "grad/gradcheck.hpp"
#include "grad/hvp.hpp"
#include "grad/loss.hpp"
#include "math/grid_ops.hpp"
#include "math/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/imaging_model.hpp"
#include "sim/pipeline.hpp"

namespace bismo {
namespace {

OpticsConfig tiny_optics() {
  OpticsConfig o;
  o.mask_dim = 32;
  o.pixel_nm = 8.0;
  return o;
}

RealGrid tiny_target(std::size_t n) {
  RealGrid t(n, n, 0.0);
  for (std::size_t r = n / 2 - 2; r < n / 2 + 2; ++r) {
    for (std::size_t c = n / 4; c < 3 * n / 4; ++c) t(r, c) = 1.0;
  }
  return t;
}

/// Where theta_J sits on the source activation.
enum class SourceState {
  kSaturated,    ///< +/- j0 (Table 1 init) plus small noise: j' ~ 1e-4
  kDesaturated,  ///< |alpha_j theta_J| ~ 1: j' = O(1)
};

struct HvpRig {
  SourceGeometry geometry{5, tiny_optics()};
  AbbeImaging abbe;
  RealGrid target = tiny_target(32);
  ActivationConfig activation;
  AbbeGradientEngine engine;
  RealGrid theta_m;
  RealGrid theta_j;

  explicit HvpRig(ThreadPool* pool = nullptr,
                  ActivationKind kind = ActivationKind::kSigmoid,
                  SourceState state = SourceState::kSaturated)
      : abbe(tiny_optics(), SourceGeometry(5, tiny_optics()), pool),
        activation(make_activation(kind)),
        engine(abbe, target, {}, activation) {
    Rng rng(77);
    theta_m = init_mask_params(target, activation);
    // The cosine mask saturates at |alpha_m theta| >= 1 (|theta| >= 1/9),
    // where dM/dtheta_M = 0: keep it inside so mask-side products live.
    const double noise = kind == ActivationKind::kCosine ? 0.03 : 0.2;
    for (auto& v : theta_m) v += rng.uniform(-noise, noise);
    SourceSpec spec;
    theta_j = init_source_params(make_source(geometry, spec), activation);
    for (auto& v : theta_j) {
      if (kind == ActivationKind::kCosine) {
        // The cosine saturates at |alpha_j theta| >= 1: stay inside.
        v = rng.uniform(-0.4, 0.4);
      } else if (state == SourceState::kDesaturated) {
        v = rng.uniform(-0.8, 0.8);
      } else {
        v += rng.uniform(-0.5, 0.5);
      }
    }
  }

  static ActivationConfig make_activation(ActivationKind kind) {
    ActivationConfig a;
    a.kind = kind;
    if (kind == ActivationKind::kCosine) a.mask_init = 0.05;
    return a;
  }

  RealGrid grad_j(const RealGrid& tj) const {
    GradRequest req;
    req.mask = false;
    req.source = true;
    return engine.evaluate(theta_m, tj, req).grad_theta_j;
  }

  RealGrid random_source_dir(std::uint64_t seed) const {
    Rng rng(seed);
    RealGrid v(theta_j.rows(), theta_j.cols());
    for (auto& x : v) x = rng.uniform(-1.0, 1.0);
    return v;
  }
};

double rel_error(const RealGrid& got, const RealGrid& want) {
  return norm2(got - want) / std::max(norm2(want), 1e-300);
}

TEST(Hvp, MatchesDenseHessianColumns) {
  HvpRig rig(nullptr, ActivationKind::kSigmoid, SourceState::kDesaturated);
  const HypergradientOps ops(rig.engine);
  const std::size_t n = rig.theta_j.size();

  // Dense Hessian w.r.t. theta_J assembled column-by-column with central
  // differences of the analytic gradient (5x5 source grid => 25 columns).
  const double eps = 1e-5;
  std::vector<RealGrid> hcols;
  hcols.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    RealGrid p = rig.theta_j;
    p[i] += eps;
    RealGrid m = rig.theta_j;
    m[i] -= eps;
    RealGrid col = rig.grad_j(p) - rig.grad_j(m);
    col *= 1.0 / (2.0 * eps);
    hcols.push_back(std::move(col));
  }

  for (int trial = 0; trial < 3; ++trial) {
    const RealGrid v = rig.random_source_dir(78 + trial);
    const RealGrid hv = ops.hvp_source(rig.theta_m, rig.theta_j, v);
    RealGrid expect(v.rows(), v.cols(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      expect = axpy(expect, v[i], hcols[i]);
    }
    EXPECT_LT(rel_error(hv, expect), 1e-6) << "trial " << trial;
  }
}

TEST(Hvp, OperatorIsApproximatelySymmetric) {
  // Exactly symmetric in exact arithmetic; only roundoff separates the
  // two pairings.
  for (const SourceState state :
       {SourceState::kSaturated, SourceState::kDesaturated}) {
    HvpRig rig(nullptr, ActivationKind::kSigmoid, state);
    const HypergradientOps ops(rig.engine);
    const RealGrid u = rig.random_source_dir(79);
    const RealGrid v = rig.random_source_dir(80);
    const double uhv = dot(u, ops.hvp_source(rig.theta_m, rig.theta_j, v));
    const double vhu = dot(v, ops.hvp_source(rig.theta_m, rig.theta_j, u));
    const double scale = std::max({std::abs(uhv), std::abs(vhu), 1e-300});
    EXPECT_LE(std::abs(uhv - vhu) / scale, 1e-10);
  }
}

TEST(Hvp, HomogeneousInV) {
  // The exact operator is linear; scaling by 2 is exact in binary
  // floating point, so H(2v) == 2 H(v) to the last bit.
  HvpRig rig;
  const HypergradientOps ops(rig.engine);
  const RealGrid v = rig.random_source_dir(80);
  const RealGrid hv = ops.hvp_source(rig.theta_m, rig.theta_j, v);
  const RealGrid h2v = ops.hvp_source(rig.theta_m, rig.theta_j, v * 2.0);
  for (std::size_t i = 0; i < hv.size(); ++i) {
    EXPECT_EQ(h2v[i], 2.0 * hv[i]) << i;
  }
}

TEST(Hvp, ZeroVectorGivesZero) {
  HvpRig rig;
  const HypergradientOps ops(rig.engine);
  const RealGrid z(5, 5, 0.0);
  const RealGrid hv = ops.hvp_source(rig.theta_m, rig.theta_j, z);
  for (double x : hv) EXPECT_DOUBLE_EQ(x, 0.0);
  EXPECT_EQ(ops.evaluations(), 0);
}

TEST(Hvp, MixedProductMatchesCrossDerivative) {
  // [d2Lso/dthetaM dthetaJ] w  checked entrywise against
  // d/dthetaM_i <grad_J Lso, w> via finite differences over theta_M --
  // an independent path through the symmetric second derivative.
  HvpRig rig(nullptr, ActivationKind::kSigmoid, SourceState::kDesaturated);
  const HypergradientOps ops(rig.engine);
  const RealGrid w = rig.random_source_dir(81);
  const RealGrid mixed = ops.mixed_mask_source(rig.theta_m, rig.theta_j, w);
  ASSERT_EQ(mixed.rows(), rig.theta_m.rows());

  // FD over theta_M is roundoff-limited below eps ~ 1e-4 (the mask
  // sigmoid is steep), so entries are compared on the product's scale.
  Rng rng(81);
  const double eps = 1e-4;
  for (int probe = 0; probe < 6; ++probe) {
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(rig.theta_m.size()) - 1));
    GradRequest req;
    req.mask = false;
    req.source = true;
    RealGrid tm_p = rig.theta_m;
    tm_p[idx] += eps;
    RealGrid tm_m = rig.theta_m;
    tm_m[idx] -= eps;
    const double gp =
        dot(rig.engine.evaluate(tm_p, rig.theta_j, req).grad_theta_j, w);
    const double gm =
        dot(rig.engine.evaluate(tm_m, rig.theta_j, req).grad_theta_j, w);
    const double expect = (gp - gm) / (2.0 * eps);
    const double scale = std::max(std::abs(expect), 0.1 * max_abs(mixed));
    EXPECT_NEAR(mixed[idx] / scale, expect / scale, 1e-5) << "probe " << probe;
  }
}

TEST(Hvp, EvaluationCounterTracksCost) {
  // One evaluation per linearization and one per backward sweep; HVPs at
  // the same point reuse the linearization for free.
  HvpRig rig;
  const HypergradientOps ops(rig.engine);
  const RealGrid v = rig.random_source_dir(82);
  ops.hvp_source(rig.theta_m, rig.theta_j, v);
  EXPECT_EQ(ops.evaluations(), 1);
  ops.hvp_source(rig.theta_m, rig.theta_j, v * 3.0);
  EXPECT_EQ(ops.evaluations(), 1);
  ops.mixed_mask_source(rig.theta_m, rig.theta_j, v);
  EXPECT_EQ(ops.evaluations(), 2);
  const RealGrid moved = axpy(rig.theta_j, 1e-3, v);
  ops.hvp_source(rig.theta_m, moved, v);
  EXPECT_EQ(ops.evaluations(), 3);
}

// ---- Exact vs finite-difference oracle --------------------------------------

struct OracleCase {
  const char* name;
  ActivationKind kind;
  SourceState state;
};

// Keeps the discovered test names stable (the default printer dumps bytes).
void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.name; }

class HvpOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(HvpOracle, ExactProductsMatchFiniteDifferences) {
  const OracleCase& c = GetParam();
  HvpRig rig(nullptr, c.kind, c.state);
  const HypergradientOps ops(rig.engine);
  for (int trial = 0; trial < 3; ++trial) {
    const RealGrid v = rig.random_source_dir(90 + trial);
    const RealGrid hv = ops.hvp_source(rig.theta_m, rig.theta_j, v);
    const RealGrid fd_hv =
        fd_hvp_source(rig.engine, rig.theta_m, rig.theta_j, v, 1e-4);
    ASSERT_GT(norm2(fd_hv), 0.0) << c.name;
    EXPECT_LT(rel_error(hv, fd_hv), 1e-6) << c.name << " trial " << trial;

    const RealGrid mixed = ops.mixed_mask_source(rig.theta_m, rig.theta_j, v);
    const RealGrid fd_mixed =
        fd_mixed_mask_source(rig.engine, rig.theta_m, rig.theta_j, v, 1e-4);
    ASSERT_GT(norm2(fd_mixed), 0.0) << c.name;
    EXPECT_LT(rel_error(mixed, fd_mixed), 1e-6) << c.name << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Activations, HvpOracle,
    ::testing::Values(
        OracleCase{"sigmoid_saturated", ActivationKind::kSigmoid,
                   SourceState::kSaturated},
        OracleCase{"sigmoid_desaturated", ActivationKind::kSigmoid,
                   SourceState::kDesaturated},
        OracleCase{"cosine", ActivationKind::kCosine,
                   SourceState::kDesaturated}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return std::string(info.param.name);
    });

TEST(Hvp, PointBelowSourceCutoffMatchesOracle) {
  // A point whose weight is below source_cutoff contributes no image to I
  // and no mask-path item, but its gradient (and so its curvature) must
  // stay live so SO can revive it.
  HvpRig rig(nullptr, ActivationKind::kSigmoid, SourceState::kDesaturated);
  const auto& pts = rig.geometry.points();
  const std::size_t r = pts[0].row;
  const std::size_t c = pts[0].col;
  rig.theta_j(r, c) = -12.0;  // j = sigmoid(-24) ~ 4e-11 < 1e-9
  const HypergradientOps ops(rig.engine);
  RealGrid v = rig.random_source_dir(95);
  v(r, c) = 1.0;

  const RealGrid hv = ops.hvp_source(rig.theta_m, rig.theta_j, v);
  const RealGrid fd_hv =
      fd_hvp_source(rig.engine, rig.theta_m, rig.theta_j, v, 1e-4);
  EXPECT_LT(rel_error(hv, fd_hv), 1e-6);
  EXPECT_TRUE(std::isfinite(hv(r, c)));

  const RealGrid mixed = ops.mixed_mask_source(rig.theta_m, rig.theta_j, v);
  const RealGrid fd_mixed =
      fd_mixed_mask_source(rig.engine, rig.theta_m, rig.theta_j, v, 1e-4);
  EXPECT_LT(rel_error(mixed, fd_mixed), 1e-6);
}

// ---- The fused one-sweep hypergradient -------------------------------------

TEST(Hvp, FusedHypergradientEqualsDirectMinusMixed) {
  for (const bool fused : {true, false}) {
    const bool initial_mode = sim::fusion_enabled();
    sim::set_fusion_enabled(fused);  // band convolution vs field paths
    HvpRig rig(nullptr, ActivationKind::kSigmoid, SourceState::kDesaturated);
    const HypergradientOps ops(rig.engine);
    const RealGrid w = rig.random_source_dir(83);
    const SmoGradient full = rig.engine.evaluate(rig.theta_m, rig.theta_j);
    const RealGrid mixed = ops.mixed_mask_source(rig.theta_m, rig.theta_j, w);
    const RealGrid want = full.grad_theta_m - mixed;

    const std::uint64_t before = sim::adjoint_pass_calls();
    const SmoGradient& lin = ops.linearize(rig.theta_m, rig.theta_j);
    const RealGrid got = ops.hypergradient(w);
    EXPECT_EQ(sim::adjoint_pass_calls() - before, 1u);
    EXPECT_LT(rel_error(got, want), 1e-12) << (fused ? "fused" : "staged");

    // The linearization is the cache-hit source-only evaluation.
    GradRequest source_only;
    source_only.mask = false;
    const SmoGradient g = rig.engine.evaluate(rig.theta_m, rig.theta_j,
                                              source_only);
    EXPECT_EQ(lin.loss, g.loss);
    EXPECT_TRUE(lin.grad_theta_j == g.grad_theta_j);
    // A zero w leaves only the direct term.
    const RealGrid direct =
        ops.hypergradient(RealGrid(w.rows(), w.cols(), 0.0));
    EXPECT_LT(rel_error(direct, full.grad_theta_m), 1e-12);
    sim::set_fusion_enabled(initial_mode);
  }
}

TEST(Hvp, TwoSeedAdjointPassEqualsSumOfSingleSeedPasses) {
  for (const bool fused : {true, false}) {
    const bool initial_mode = sim::fusion_enabled();
    sim::set_fusion_enabled(fused);
    HvpRig rig;
    ASSERT_EQ(sim::adjoint_uses_band_conv(rig.abbe), fused);
    Rng rng(84);
    RealGrid d1(32, 32), d2(32, 32);
    for (auto& x : d1) x = rng.uniform(-1.0, 1.0);
    for (auto& x : d2) x = rng.uniform(-1.0, 1.0);
    ComplexGrid o = to_complex(activate_mask(rig.theta_m, {}));
    fft2(o);
    std::vector<sim::AdjointItem> both, first, second;
    for (std::size_t k = 0; k < rig.abbe.components(); ++k) {
      sim::AdjointItem item;
      item.component = static_cast<std::uint32_t>(k);
      item.mask = k % 3 != 0;
      item.scale = rng.uniform(-1.0, 1.0);
      item.scale2 = rng.uniform(-1.0, 1.0);
      both.push_back(item);
      first.push_back(item);
      item.scale = item.scale2;
      second.push_back(item);
    }
    const ComplexGrid got = sim::adjoint_pass(rig.abbe, o, d1, both, nullptr,
                                              &d2);
    ComplexGrid want = sim::adjoint_pass(rig.abbe, o, d1, first);
    want += sim::adjoint_pass(rig.abbe, o, d2, second);
    double err = 0.0;
    double ref = 0.0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      err = std::max(err, std::abs(got[i] - want[i]));
      ref = std::max(ref, std::abs(want[i]));
    }
    EXPECT_LT(err, 1e-12 * ref) << (fused ? "band conv" : "field path");
    std::vector<double> wns;
    EXPECT_THROW(sim::adjoint_pass(rig.abbe, o, d1, both, &wns, &d2),
                 std::invalid_argument);
    sim::set_fusion_enabled(initial_mode);
  }
}

TEST(Hvp, BitwiseAcrossThreadCounts) {
  RealGrid ref_hv, ref_hyper;
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    HvpRig rig(&pool, ActivationKind::kSigmoid, SourceState::kDesaturated);
    const HypergradientOps ops(rig.engine);
    ops.linearize(rig.theta_m, rig.theta_j);
    const RealGrid v = rig.random_source_dir(85);
    const RealGrid hv = ops.hvp(v);
    const RealGrid hyper = ops.hypergradient(v);
    if (threads == 1) {
      ref_hv = hv;
      ref_hyper = hyper;
      continue;
    }
    EXPECT_TRUE(hv == ref_hv);
    EXPECT_TRUE(hyper == ref_hyper);
  }
}

// ---- Loss curvature ---------------------------------------------------------

TEST(LossCurvature, MatchesFiniteDifferencesOfTheSeed) {
  // The loss is pixelwise in I, so perturbing every pixel at once and
  // differencing dL/dI recovers the diagonal d2L/dI2 pixel by pixel.
  Rng rng(86);
  const RealGrid intensity = rng.uniform_grid(16, 16, 0.05, 0.6);
  const RealGrid target = binarize(rng.uniform_grid(16, 16, 0.0, 1.0));
  const ResistModel resist;
  const LossWeights weights;
  const ProcessWindow pw;
  RealGrid d2;
  const SmoLoss base =
      evaluate_smo_loss(intensity, target, resist, weights, pw, true, &d2);
  ASSERT_EQ(d2.rows(), 16u);
  const double eps = 1e-6;
  RealGrid up = intensity;
  RealGrid down = intensity;
  for (std::size_t i = 0; i < up.size(); ++i) {
    up[i] += eps;
    down[i] -= eps;
  }
  const SmoLoss lp = evaluate_smo_loss(up, target, resist, weights, pw, true);
  const SmoLoss lm = evaluate_smo_loss(down, target, resist, weights, pw, true);
  const double scale = max_abs(d2);
  for (std::size_t i = 0; i < d2.size(); ++i) {
    const double fd = (lp.dl_di[i] - lm.dl_di[i]) / (2.0 * eps);
    EXPECT_NEAR(d2[i], fd, 1e-6 * scale) << i;
  }
  // Asking for the curvature changes nothing else.
  const SmoLoss plain =
      evaluate_smo_loss(intensity, target, resist, weights, pw, true);
  EXPECT_EQ(plain.total, base.total);
  EXPECT_TRUE(plain.dl_di == base.dl_di);
}

// ---- BiSMO outer step --------------------------------------------------------

TEST(Bismo, OneAdjointPassPerOuterStep) {
  SmoConfig config;
  config.optics = tiny_optics();
  config.source_dim = 5;
  const SmoProblem problem(config, tiny_target(32));
  BismoOptions options;
  options.outer_steps = 3;
  options.unroll_steps = 2;
  options.hyper_terms = 3;
  for (const BismoVariant variant :
       {BismoVariant::kFd, BismoVariant::kNmn, BismoVariant::kCg}) {
    const std::uint64_t before = sim::adjoint_pass_calls();
    const RunResult run = run_bismo(problem, variant, options);
    ASSERT_EQ(run.trace.size(), 3u);
    EXPECT_EQ(sim::adjoint_pass_calls() - before, 3u) << to_string(variant);
    // T source-only evaluations + one linearization + one sweep per step.
    EXPECT_EQ(run.gradient_evaluations, 3 * (2 + 2)) << to_string(variant);
  }
}

}  // namespace
}  // namespace bismo

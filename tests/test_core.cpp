// Core driver tests: SmoProblem plumbing, every method reduces the SMO
// loss on a small clip, and the structural identities the paper states
// (BiSMO-FD == BiSMO-NMN at K = 0).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/mask_opt.hpp"
#include "core/problem.hpp"
#include "core/runner.hpp"
#include "math/grid_ops.hpp"
#include "metrics/metrics.hpp"

namespace bismo {
namespace {

/// Small, fast configuration: 64 px tile at 16 nm pixels, 7x7 source.
SmoConfig small_config() {
  SmoConfig cfg;
  cfg.optics.mask_dim = 64;
  cfg.optics.pixel_nm = 16.0;
  cfg.source_dim = 7;
  cfg.outer_steps = 6;
  cfg.unroll_steps = 2;
  cfg.hyper_terms = 2;
  cfg.am_cycles = 2;
  cfg.am_so_steps = 3;
  cfg.am_mo_steps = 3;
  cfg.socs_kernels = 8;
  return cfg;
}

/// A wire-and-pad target exercising both axes.
RealGrid small_target() {
  RealGrid t(64, 64, 0.0);
  for (std::size_t r = 28; r < 32; ++r) {
    for (std::size_t c = 10; c < 54; ++c) t(r, c) = 1.0;
  }
  for (std::size_t r = 40; r < 50; ++r) {
    for (std::size_t c = 40; c < 50; ++c) t(r, c) = 1.0;
  }
  return t;
}

TEST(SmoConfig, ValidationCatchesBadSettings) {
  SmoConfig cfg = small_config();
  EXPECT_NO_THROW(cfg.validate());
  cfg.lr_mask = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.source_dim = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.socs_kernels = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // A negative Tikhonov shift would make CG's operator indefinite.
  cfg = small_config();
  cfg.cg_damping = -5.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.cg_damping = 0.0;
  EXPECT_NO_THROW(cfg.validate());

  // Every double field must be finite; the error names the field (and
  // its key, when it has one) and the value.
  std::size_t doubles = 0;
  visit_config_fields(cfg, [&doubles](const ConfigField&, const auto& v) {
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>) {
      ++doubles;
    }
  });
  EXPECT_GE(doubles, 25u);
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t target = 0; target < doubles; ++target) {
    for (const double bad :
         {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
      cfg = small_config();
      std::size_t index = 0;
      std::string name;
      visit_config_fields(cfg, [&](const ConfigField& field, auto& v) {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>) {
          if (index++ == target) {
            v = bad;
            name = field.key != nullptr ? field.key : field.path;
          }
        }
      });
      std::ostringstream value;
      value << bad;
      try {
        cfg.validate();
        ADD_FAILURE() << name << " = " << value.str() << " accepted";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(name), std::string::npos) << what;
        EXPECT_NE(what.find("= " + value.str()), std::string::npos) << what;
      }
    }
  }
}

TEST(SmoProblem, RejectsTargetShapeMismatch) {
  EXPECT_THROW(SmoProblem(small_config(), RealGrid(32, 32, 0.0)),
               std::invalid_argument);
}

TEST(SmoProblem, InitialParametersFollowTable1) {
  const SmoProblem problem(small_config(), small_target());
  const RealGrid tm = problem.initial_theta_m();
  EXPECT_DOUBLE_EQ(tm(29, 20), 1.0);   // m0 on pattern
  EXPECT_DOUBLE_EQ(tm(0, 0), -1.0);    // -m0 off pattern
  const RealGrid tj = problem.initial_theta_j();
  bool has_on = false;
  bool has_off = false;
  for (double v : tj) {
    has_on = has_on || v == 5.0;
    has_off = has_off || v == -5.0;
  }
  EXPECT_TRUE(has_on);
  EXPECT_TRUE(has_off);
}

TEST(SmoProblem, ResistImagesRespondToDose) {
  const SmoProblem problem(small_config(), small_target());
  const RealGrid tm = problem.initial_theta_m();
  const RealGrid tj = problem.initial_theta_j();
  const RealGrid z_min = problem.resist_image(tm, tj, DoseCorner::kMin);
  const RealGrid z_max = problem.resist_image(tm, tj, DoseCorner::kMax);
  // Higher dose can only increase the (sigmoid) resist response.
  for (std::size_t i = 0; i < z_min.size(); ++i) {
    EXPECT_GE(z_max[i], z_min[i] - 1e-12);
  }
}

TEST(SmoProblem, EvaluateSolutionProducesFiniteMetrics) {
  const SmoProblem problem(small_config(), small_target());
  const SolutionMetrics m = problem.evaluate_solution(
      problem.initial_theta_m(), problem.initial_theta_j());
  EXPECT_GE(m.l2_nm2, 0.0);
  EXPECT_GE(m.pvb_nm2, 0.0);
  EXPECT_GT(m.epe_samples, 0u);
  EXPECT_GT(m.loss, 0.0);
}

TEST(SmoProblem, BuildsFromLayoutClip) {
  Layout clip(1024.0);
  clip.add_rect({256, 448, 768, 512});
  const SmoProblem problem(small_config(), clip);
  EXPECT_GT(pattern_area_nm2(problem.target(), 1.0), 0.0);
}

TEST(MaskOpt, AbbeMoReducesLoss) {
  SmoConfig cfg = small_config();
  cfg.outer_steps = 8;
  const SmoProblem problem(cfg, small_target());
  const RunResult r = run_method(problem, Method::kAbbeMo);
  ASSERT_EQ(r.trace.size(), 8u);
  EXPECT_LT(r.trace.back().loss, r.trace.front().loss);
  EXPECT_EQ(r.gradient_evaluations, 8);
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST(MaskOpt, HopkinsMoSingleLevelReducesLoss) {
  SmoConfig cfg = small_config();
  cfg.outer_steps = 8;
  cfg.socs_kernels = 24;  // the NILT proxy keeps Q / 3 = 8 kernels
  const SmoProblem problem(cfg, small_target());
  const RunResult r = run_method(problem, Method::kNiltProxy);
  ASSERT_EQ(r.trace.size(), 8u);
  EXPECT_LT(r.trace.back().loss, r.trace.front().loss);
}

TEST(MaskOpt, HopkinsMoMultiLevelRunsAllLevels) {
  SmoConfig cfg = small_config();
  cfg.outer_steps = 8;
  const SmoProblem problem(cfg, small_target());
  const RunResult r = run_method(problem, Method::kDac23Proxy);
  ASSERT_EQ(r.trace.size(), 8u);
  // Final-level loss must be finite and improving relative to the start of
  // the final level.
  EXPECT_LT(r.trace.back().loss, r.trace[4].loss * 1.5);
  EXPECT_EQ(r.theta_m.rows(), 64u);
}

TEST(MaskOpt, Dac23SkipsACoarseLevelThatWouldNotValidate) {
  // The coarse level halves mask_dim and doubles pixel_nm.  Below 16 the
  // half grid is under 8, and above lambda / (8 NA) ~ 17.9 nm the doubled
  // pixel cannot sample the shifted pupil band; either way DAC23 runs one
  // full-resolution level for every outer step.
  const struct {
    std::size_t dim;
    double pixel_nm;
    int levels;
  } cases[] = {{12, 8.0, 1}, {32, 24.0, 1}, {32, 32.0, 1}, {16, 8.0, 2}};
  for (const auto& c : cases) {
    SmoConfig cfg = small_config();
    cfg.optics.mask_dim = c.dim;
    cfg.optics.pixel_nm = c.pixel_nm;
    cfg.source_dim = 5;
    cfg.outer_steps = 2;
    const std::string what =
        std::to_string(c.dim) + " at " + std::to_string(c.pixel_nm) + " nm";
    EXPECT_EQ(hopkins_mo_levels(Method::kDac23Proxy, cfg.optics), c.levels)
        << what;
    EXPECT_EQ(hopkins_mo_levels(Method::kNiltProxy, cfg.optics), 1) << what;
    RealGrid target(c.dim, c.dim, 0.0);
    for (std::size_t r = c.dim / 4; r < 3 * c.dim / 4; ++r) {
      target(r, c.dim / 2) = 1.0;
    }
    const SmoProblem problem(cfg, target);
    RunResult r;
    ASSERT_NO_THROW(r = run_method(problem, Method::kDac23Proxy)) << what;
    EXPECT_EQ(r.trace.size(), 2u) << what;
    EXPECT_EQ(r.theta_m.rows(), c.dim) << what;
    for (const StepRecord& step : r.trace) {
      EXPECT_TRUE(std::isfinite(step.loss)) << what;
    }
  }
}

TEST(AmSmo, BothModesReduceLoss) {
  const SmoProblem problem(small_config(), small_target());
  for (Method m : {Method::kAmAbbeAbbe, Method::kAmAbbeHopkins}) {
    const RunResult r = run_method(problem, m);
    ASSERT_EQ(r.trace.size(), 12u) << to_string(m);
    EXPECT_LT(r.trace.back().loss, r.trace.front().loss) << to_string(m);
  }
}

TEST(Bismo, AllVariantsReduceLoss) {
  SmoConfig cfg = small_config();
  cfg.outer_steps = 5;
  const SmoProblem problem(cfg, small_target());
  for (Method m : {Method::kBismoFd, Method::kBismoNmn, Method::kBismoCg}) {
    const RunResult r = run_method(problem, m);
    ASSERT_EQ(r.trace.size(), 5u) << to_string(m);
    EXPECT_LT(r.trace.back().loss, r.trace.front().loss) << to_string(m);
    EXPECT_GT(r.gradient_evaluations, 5) << to_string(m);
  }
}

TEST(Bismo, FdEqualsNeumannAtKZero) {
  // Paper Sec. 3.2.4: with K = 0 the Neumann hypergradient reduces to the
  // finite-difference one.  FD unrolls T = 1, so NMN at T = 1, K = 0 must
  // give a bitwise-identical run.
  SmoConfig cfg = small_config();
  cfg.outer_steps = 3;
  cfg.unroll_steps = 1;
  cfg.hyper_terms = 0;  // K = 0
  const SmoProblem problem(cfg, small_target());
  const RunResult fd = run_method(problem, Method::kBismoFd);
  const RunResult nmn = run_method(problem, Method::kBismoNmn);
  ASSERT_EQ(fd.trace.size(), nmn.trace.size());
  for (std::size_t i = 0; i < fd.trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(fd.trace[i].loss, nmn.trace[i].loss) << "step " << i;
  }
  for (std::size_t i = 0; i < fd.theta_m.size(); ++i) {
    ASSERT_DOUBLE_EQ(fd.theta_m[i], nmn.theta_m[i]) << "theta_m[" << i << "]";
  }
}

TEST(Bismo, SourceParametersActuallyMove) {
  SmoConfig cfg = small_config();
  cfg.outer_steps = 3;
  const SmoProblem problem(cfg, small_target());
  const RunResult r = run_method(problem, Method::kBismoNmn);
  const RealGrid init = problem.initial_theta_j();
  EXPECT_GT(norm2(r.theta_j - init), 1e-6);
}

TEST(Runner, DispatchesEveryMethod) {
  SmoConfig cfg = small_config();
  cfg.outer_steps = 3;
  cfg.am_cycles = 1;
  cfg.am_so_steps = 2;
  cfg.am_mo_steps = 2;
  cfg.unroll_steps = 1;
  cfg.hyper_terms = 1;
  const SmoProblem problem(cfg, small_target());
  ASSERT_EQ(all_methods().size(), 8u);
  for (Method m : all_methods()) {
    const RunResult r = run_method(problem, m);
    EXPECT_EQ(r.method, to_string(m));
    EXPECT_FALSE(r.trace.empty()) << to_string(m);
    EXPECT_FALSE(r.theta_m.empty()) << to_string(m);
  }
}

TEST(Runner, SourceOptimizationFlags) {
  EXPECT_FALSE(optimizes_source(Method::kNiltProxy));
  EXPECT_FALSE(optimizes_source(Method::kDac23Proxy));
  EXPECT_FALSE(optimizes_source(Method::kAbbeMo));
  EXPECT_TRUE(optimizes_source(Method::kAmAbbeAbbe));
  EXPECT_TRUE(optimizes_source(Method::kBismoNmn));
}

TEST(RunResult, FinalLossHandlesEmptyTrace) {
  RunResult r;
  EXPECT_TRUE(std::isinf(r.final_loss()));
  r.trace.push_back({0, 5.0, 1.0, 1.0, 0.1});
  EXPECT_DOUBLE_EQ(r.final_loss(), 5.0);
}

}  // namespace
}  // namespace bismo

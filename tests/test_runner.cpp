// Runner dispatch coverage: name parsing round-trips (method_from_string /
// dataset_from_string as exact inverses of to_string), an all_methods()
// smoke run on a tiny 32 x 32 clip checking every trace is finite and
// decreasing overall, and that source-optimizing methods actually move
// theta_J, and the per-method contracts of the method table: trace length
// and evaluation count per budget, and cancellation after the first step.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/problem.hpp"
#include "core/runner.hpp"
#include "math/grid_ops.hpp"
#include "test_util.hpp"

namespace bismo {
namespace {

SmoConfig tiny_config() {
  SmoConfig cfg;
  cfg.optics.mask_dim = 32;
  cfg.optics.pixel_nm = 16.0;
  cfg.source_dim = 7;
  cfg.outer_steps = 5;
  cfg.unroll_steps = 1;
  cfg.hyper_terms = 1;
  cfg.am_cycles = 2;
  cfg.am_so_steps = 3;
  cfg.am_mo_steps = 3;
  cfg.socs_kernels = 6;
  // A movable source at tiny budgets (see bench_common's rationale).
  cfg.initial_source.shape = SourceShape::kConventional;
  cfg.activation.source_init = 1.5;
  return cfg;
}

TEST(RunnerParsing, MethodFromStringInvertsToString) {
  for (Method m : all_methods()) {
    EXPECT_EQ(method_from_string(to_string(m)), m) << to_string(m);
  }
  // Short CLI aliases and case-insensitivity.
  EXPECT_EQ(method_from_string("nilt"), Method::kNiltProxy);
  EXPECT_EQ(method_from_string("dac23"), Method::kDac23Proxy);
  EXPECT_EQ(method_from_string("abbe-mo"), Method::kAbbeMo);
  EXPECT_EQ(method_from_string("am-ah"), Method::kAmAbbeHopkins);
  EXPECT_EQ(method_from_string("am-aa"), Method::kAmAbbeAbbe);
  EXPECT_EQ(method_from_string("bismo-fd"), Method::kBismoFd);
  EXPECT_EQ(method_from_string("bismo-cg"), Method::kBismoCg);
  EXPECT_EQ(method_from_string("BISMO-NMN"), Method::kBismoNmn);
  try {
    method_from_string("gradient-descent-9000");
    FAIL() << "unknown method accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("gradient-descent-9000"),
              std::string::npos);
  }
}

TEST(RunnerParsing, DatasetFromStringInvertsToString) {
  for (DatasetKind kind :
       {DatasetKind::kIccad13, DatasetKind::kIccadL, DatasetKind::kIspd19}) {
    EXPECT_EQ(dataset_from_string(to_string(kind)), kind) << to_string(kind);
  }
  EXPECT_EQ(dataset_from_string("iccad13"), DatasetKind::kIccad13);
  EXPECT_EQ(dataset_from_string("iccad-l"), DatasetKind::kIccadL);
  EXPECT_EQ(dataset_from_string("ISPD19"), DatasetKind::kIspd19);
  EXPECT_THROW(dataset_from_string("iccad2099"), std::invalid_argument);
}

TEST(RunnerDispatch, AllMethodsProduceFiniteDecreasingTraces) {
  const SmoProblem problem(tiny_config(), testing::tiny_target32());
  const RealGrid theta_j0 = problem.initial_theta_j();
  for (Method method : all_methods()) {
    const RunResult run = run_method(problem, method);
    SCOPED_TRACE(to_string(method));
    EXPECT_EQ(run.method, to_string(method));
    ASSERT_FALSE(run.trace.empty());
    for (const StepRecord& rec : run.trace) {
      EXPECT_TRUE(std::isfinite(rec.loss)) << "step " << rec.step;
      EXPECT_TRUE(std::isfinite(rec.l2)) << "step " << rec.step;
      EXPECT_TRUE(std::isfinite(rec.pvb)) << "step " << rec.step;
    }
    // Decreasing overall: the run ends below where it started (individual
    // steps may zig-zag, e.g. AM-SMO's alternation).  The multi-level
    // DAC23 proxy changes grid resolution mid-trace, so its commensurate
    // baseline is the first step of the final (full-resolution) level:
    // outer_steps / levels coarse steps precede it (levels = 2).
    std::size_t baseline = 0;
    if (method == Method::kDac23Proxy) {
      baseline = static_cast<std::size_t>(tiny_config().outer_steps / 2);
    }
    ASSERT_GT(run.trace.size(), baseline);
    EXPECT_LT(run.trace.back().loss, run.trace[baseline].loss);
    EXPECT_FALSE(run.cancelled);

    const double source_movement = norm2(run.theta_j - theta_j0);
    if (optimizes_source(method)) {
      EXPECT_GT(source_movement, 1e-8) << "source should move";
    } else {
      EXPECT_DOUBLE_EQ(source_movement, 0.0) << "source must stay frozen";
    }
  }
}

bool is_bismo(Method method) {
  return method == Method::kBismoFd || method == Method::kBismoCg ||
         method == Method::kBismoNmn;
}

TEST(Runner, TraceMatchesPlannedSteps) {
  for (const int outer : {1, 3}) {
    SmoConfig cfg = tiny_config();
    cfg.outer_steps = outer;
    cfg.unroll_steps = 2;
    cfg.am_cycles = 1;
    cfg.am_so_steps = 2;
    cfg.am_mo_steps = 1;
    const SmoProblem problem(cfg, testing::tiny_target32());
    for (Method method : all_methods()) {
      SCOPED_TRACE(to_string(method) + ", outer_steps " +
                   std::to_string(outer));
      const RunResult run = run_method(problem, method);
      ASSERT_EQ(run.trace.size(),
                static_cast<std::size_t>(planned_steps(method, cfg)));
      // MO and AM: one backward pass per recorded step.  BiSMO: T inner
      // steps (T = 1 for FD), one linearization and one sweep per outer
      // step.
      long want = static_cast<long>(run.trace.size());
      if (is_bismo(method)) {
        const int unroll = method == Method::kBismoFd ? 1 : cfg.unroll_steps;
        want = outer * (unroll + 2);
      }
      EXPECT_EQ(run.gradient_evaluations, want);
    }
  }
}

TEST(Runner, CancelAfterFirstStepEveryMethod) {
  const SmoConfig cfg = tiny_config();
  const SmoProblem problem(cfg, testing::tiny_target32());
  for (Method method : all_methods()) {
    SCOPED_TRACE(to_string(method));
    CancelToken token;
    RunControl control;
    control.cancel = &token;
    control.on_step = [&token](const StepRecord&) { token.request(); };
    const RunResult run = run_method(problem, method, control);
    EXPECT_TRUE(run.cancelled);
    EXPECT_EQ(run.trace.size(), 1u);
    // DAC23 is cancelled on its coarse level and must still return
    // full-resolution mask parameters.
    EXPECT_EQ(run.theta_m.rows(), cfg.optics.mask_dim);
    EXPECT_EQ(run.theta_m.cols(), cfg.optics.mask_dim);
    EXPECT_EQ(run.theta_j.rows(), cfg.source_dim);
    EXPECT_EQ(run.theta_j.cols(), cfg.source_dim);
  }
}

}  // namespace
}  // namespace bismo

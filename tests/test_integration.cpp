// End-to-end integration tests: generator -> problem -> optimization ->
// metrics, checking the qualitative claims the paper's evaluation rests on
// at small scale (SMO beats MO; optimization improves printed metrics).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/api.hpp"
#include "core/problem.hpp"
#include "core/runner.hpp"
#include "layout/generators.hpp"
#include "math/grid_ops.hpp"
#include "parallel/thread_pool.hpp"

namespace bismo {
namespace {

SmoConfig integration_config() {
  SmoConfig cfg;
  cfg.optics.mask_dim = 64;
  cfg.optics.pixel_nm = 16.0;  // 1024 nm tile to match the generators
  cfg.source_dim = 7;
  cfg.outer_steps = 10;
  cfg.unroll_steps = 2;
  cfg.hyper_terms = 2;
  cfg.am_cycles = 2;
  cfg.am_so_steps = 4;
  cfg.am_mo_steps = 4;
  cfg.socs_kernels = 8;
  return cfg;
}

TEST(Integration, GeneratedClipOptimizesEndToEnd) {
  const DatasetSpec spec = dataset_spec(DatasetKind::kIccad13);
  const Layout clip = generate_clip(spec, 5);
  const SmoConfig cfg = integration_config();
  const SmoProblem problem(cfg, clip);

  const SolutionMetrics before = problem.evaluate_solution(
      problem.initial_theta_m(), problem.initial_theta_j());
  const RunResult run = run_method(problem, Method::kBismoNmn);
  const SolutionMetrics after =
      problem.evaluate_solution(run.theta_m, run.theta_j);

  EXPECT_LT(after.loss, before.loss);
  EXPECT_LE(after.l2_nm2, before.l2_nm2 * 1.05);
}

TEST(Integration, BismoBeatsMaskOnlyOnFixedBudgetClip) {
  // The headline qualitative claim of Table 3 at miniature scale: with the
  // same outer budget, SMO (BiSMO-NMN) reaches a lower loss than MO alone.
  const DatasetSpec spec = dataset_spec(DatasetKind::kIccad13);
  const Layout clip = generate_clip(spec, 9);
  const SmoConfig cfg = integration_config();
  const SmoProblem problem(cfg, clip);

  const RunResult mo = run_method(problem, Method::kAbbeMo);
  const RunResult bismo = run_method(problem, Method::kBismoNmn);
  EXPECT_LT(bismo.final_loss(), mo.final_loss() * 1.02);
}

TEST(Integration, ParallelPoolGivesIdenticalOptimization) {
  // Full-run determinism across thread counts: same trace, same parameters.
  const DatasetSpec spec = dataset_spec(DatasetKind::kIccad13);
  const Layout clip = generate_clip(spec, 3);
  SmoConfig cfg = integration_config();
  cfg.outer_steps = 3;

  ThreadPool pool(3);
  const SmoProblem serial(cfg, clip, nullptr);
  const SmoProblem parallel(cfg, clip, &pool);
  const RunResult rs = run_method(serial, Method::kBismoFd);
  const RunResult rp = run_method(parallel, Method::kBismoFd);
  ASSERT_EQ(rs.trace.size(), rp.trace.size());
  for (std::size_t i = 0; i < rs.trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(rs.trace[i].loss, rp.trace[i].loss) << "step " << i;
  }
  for (std::size_t i = 0; i < rs.theta_m.size(); ++i) {
    ASSERT_DOUBLE_EQ(rs.theta_m[i], rp.theta_m[i]) << i;
  }
}

TEST(Integration, SourceOnlyMethodsKeepTemplateSource) {
  const DatasetSpec spec = dataset_spec(DatasetKind::kIccad13);
  const Layout clip = generate_clip(spec, 4);
  SmoConfig cfg = integration_config();
  cfg.outer_steps = 3;
  const SmoProblem problem(cfg, clip);
  const RealGrid init = problem.initial_theta_j();
  const RunResult mo = run_method(problem, Method::kAbbeMo);
  for (std::size_t i = 0; i < init.size(); ++i) {
    ASSERT_DOUBLE_EQ(mo.theta_j[i], init[i]);
  }
}

TEST(Integration, TraceTimesAreMonotone) {
  const DatasetSpec spec = dataset_spec(DatasetKind::kIccadL);
  const Layout clip = generate_clip(spec, 6);
  SmoConfig cfg = integration_config();
  cfg.outer_steps = 4;
  const SmoProblem problem(cfg, clip);
  const RunResult r = run_method(problem, Method::kBismoCg);
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_GE(r.trace[i].seconds, r.trace[i - 1].seconds);
  }
  EXPECT_GE(r.wall_seconds, r.trace.back().seconds);
}

TEST(Integration, BismoCgEndsBelowItsInitialLossOnEveryClip) {
  // The 6-clip matrix (seeds 11-12 x ICCAD13 / ICCAD-L / ISPD19) as
  // bismo_cli runs it, at 64^2 / 9^2, T = 2, K = 3, 60 steps.  Warm-starting each CG solve from
  // the previous outer step's w ended 5 of these 6 clips above their
  // initial loss while every run still reported done.
  std::vector<api::JobSpec> specs;
  std::vector<std::string> clips;
  for (const DatasetKind kind :
       {DatasetKind::kIccad13, DatasetKind::kIccadL, DatasetKind::kIspd19}) {
    for (const std::uint64_t seed : {11u, 12u}) {
      clips.push_back(to_string(kind) + " seed " + std::to_string(seed));
      api::JobSpec spec;
      spec.clip = api::ClipSource::generated(kind, seed);
      spec.method = Method::kBismoCg;
      spec.config.initial_source.shape = SourceShape::kConventional;
      spec.config.activation.source_init = 1.5;
      spec.config_overrides = {"mask_dim=64", "source_dim=9",
                               "outer_steps=60", "unroll_steps=2",
                               "hyper_terms=3"};
      specs.push_back(std::move(spec));
    }
  }
  api::Session::Options options;
  options.threads = 2;
  api::Session session(options);
  const std::vector<api::JobResult> results = session.run_batch(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const api::JobResult& r = results[i];
    ASSERT_TRUE(r.ok()) << clips[i] << ": " << r.error;
    EXPECT_LT(r.after.loss, r.before.loss) << clips[i];
  }
}

}  // namespace
}  // namespace bismo

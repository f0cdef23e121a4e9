#include "core/bismo.hpp"

#include "grad/hvp.hpp"
#include "grad/inverse_hvp.hpp"
#include "math/grid_ops.hpp"

namespace bismo {

RunResult run_bismo(const SmoProblem& problem, Method method,
                    const RunControl& control) {
  const SmoConfig& cfg = problem.config();
  const AbbeGradientEngine& engine = problem.engine();
  const HypergradientOps hyper(engine);
  RunRecorder rec(cfg, control);
  // FD is Neumann at K = 0, T = 1.  CG starts every solve from w = 0, not
  // from the last step's w (Alg. 2 line 10): see grad/inverse_hvp.hpp.
  const bool fd = method == Method::kBismoFd;
  const int unroll_steps = fd ? 1 : cfg.unroll_steps;
  const int hyper_terms = fd ? 0 : cfg.hyper_terms;

  RealGrid theta_m = problem.initial_theta_m();
  RealGrid theta_j = problem.initial_theta_j();
  auto outer_opt = make_optimizer(cfg.optimizer, cfg.lr_mask);
  auto inner_opt = make_optimizer(cfg.optimizer, cfg.lr_source);
  const GradRequest source_only{false, true};

  InverseHvp solver;
  RealGrid w;
  const auto hvp = [&hyper](const RealGrid& x, RealGrid& out) {
    hyper.hvp(x, out);
  };

  for (int outer = 0; outer < cfg.outer_steps && !rec.stopped(); ++outer) {
    // ---- Lower level: unroll T SO steps (Alg. 2 lines 2-4). ----
    for (int t = 0; t < unroll_steps; ++t) {
      const SmoGradient g = engine.evaluate(theta_m, theta_j, source_only);
      rec.count();
      inner_opt->step(theta_j, g.grad_theta_j);
    }

    // ---- Hypergradient (Eq. 12). ----
    // Linearize once at (theta_M, theta_JT): a cache-hit source-only
    // evaluation that also keeps what the exact HVPs and the fused sweep
    // need (grad/hvp.hpp).
    const SmoGradient& g = hyper.linearize(theta_m, theta_j);
    rec.record(g);
    const RealGrid& v = g.grad_theta_j;  // dLmo/dthetaJ

    // w ~ [d2Lso/dthetaJ^2]^{-1} v; a vanishing v sweeps with w = 0.
    if (!(norm2(v) > 1e-30)) {
      w.resize(v.rows(), v.cols());
    } else if (method == Method::kBismoCg) {
      solver.cg(hvp, v, hyper_terms, cfg.cg_damping, 1e-10, w);
    } else {
      solver.neumann(hvp, v, cfg.lr_source, hyper_terms, w);
    }

    // Gradient fusion in one backward sweep:
    //   hyper = dLmo/dthetaM - [d2Lso/dthetaM dthetaJ] w.
    const RealGrid hypergrad = hyper.hypergradient(w);

    // ---- Upper level: MO update (Alg. 2 line 13). ----
    outer_opt->step(theta_m, hypergrad);
  }
  // One linearization and one backward sweep per outer step.
  rec.count(hyper.evaluations());
  return rec.finish(std::move(theta_m), std::move(theta_j));
}

}  // namespace bismo

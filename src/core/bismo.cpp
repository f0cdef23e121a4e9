#include "core/bismo.hpp"

#include <algorithm>
#include <cmath>

#include "grad/hvp.hpp"
#include "linalg/cg.hpp"
#include "math/grid_ops.hpp"

namespace bismo {
namespace {

/// Contraction-safe Neumann step size: alpha = xi_J capped at 0.9/lambda_max
/// where lambda_max is estimated along the seed direction v by one HVP.
/// Without the cap, alpha * H with our sum-scaled loss (gamma = 1000 over
/// all pixels) has spectral radius >> 1 and the series diverges; ref. [14]
/// applies the same learning-rate-scaled series.
double contraction_alpha(double xi, const RealGrid& v, const RealGrid& hv) {
  const double nv = norm2(v);
  const double nhv = norm2(hv);
  if (nv < 1e-30 || nhv < 1e-30) return xi;
  const double lambda_est = nhv / nv;
  return std::min(xi, 0.9 / lambda_est);
}

}  // namespace

RunResult run_bismo(const SmoProblem& problem, Method method,
                    const RunControl& control) {
  const SmoConfig& cfg = problem.config();
  const AbbeGradientEngine& engine = problem.engine();
  const HypergradientOps hyper(engine);
  RunRecorder rec(cfg, control);
  const int unroll_steps = method == Method::kBismoFd ? 1 : cfg.unroll_steps;

  RealGrid theta_m = problem.initial_theta_m();
  RealGrid theta_j = problem.initial_theta_j();
  auto outer_opt = make_optimizer(cfg.optimizer, cfg.lr_mask);
  auto inner_opt = make_optimizer(cfg.optimizer, cfg.lr_source);

  // CG warm start w0, re-initialized from each solve (Alg. 2 line 10).
  RealGrid cg_warm(theta_j.rows(), theta_j.cols(), 0.0);

  const GradRequest source_only{false, true};

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

    RealGrid wvec(theta_j.rows(), theta_j.cols(), 0.0);
    const double vn = norm2(v);
    if (vn > 1e-30) {
      switch (method) {
        case Method::kBismoFd: {
          // Eq. 13: w = alpha * v (identical to the K = 0 Neumann sum).
          const RealGrid hv = hyper.hvp(v);
          const double alpha = contraction_alpha(cfg.lr_source, v, hv);
          wvec = v * alpha;
          break;
        }
        case Method::kBismoCg: {
          // Eq. 17-18: K CG steps on [d2Lso/dthetaJ^2] w = v.
          CgOptions cg_opt;
          cg_opt.max_iterations = cfg.hyper_terms;
          cg_opt.damping = cfg.cg_damping;
          cg_opt.tolerance = 1e-10;
          const auto apply = [&](const RealGrid& x) { return hyper.hvp(x); };
          const CgResult sol = conjugate_gradient(apply, v, cg_warm, cg_opt);
          wvec = sol.x;
          cg_warm = wvec;  // warm start the next outer step
          break;
        }
        default: {  // Method::kBismoNmn
          // Eq. 16: w = alpha * sum_{k=0..K} (I - alpha H)^k v, evaluated
          // iteratively with one HVP per term.  The series only converges
          // where the Hessian is positive along the iterate (Lemma 2); a
          // growing term signals a negative/over-large curvature direction,
          // in which case the partial sum so far is kept (the same
          // safeguard CG applies on negative curvature).
          RealGrid hv = hyper.hvp(v);
          const double alpha = contraction_alpha(cfg.lr_source, v, hv);
          RealGrid cur = v;
          RealGrid acc = v;
          for (int k = 0; k < cfg.hyper_terms; ++k) {
            if (k > 0) hyper.hvp(cur, hv);
            cur = axpy(cur, -alpha, hv);
            const double cn = norm2(cur);
            if (!std::isfinite(cn) || cn > 1.5 * vn) break;
            acc += cur;
          }
          wvec = acc * alpha;
          break;
        }
      }
    }

    // Gradient fusion in one backward sweep:
    //   hyper = dLmo/dthetaM - [d2Lso/dthetaM dthetaJ] w.
    const RealGrid hypergrad = hyper.hypergradient(wvec);

    // ---- Upper level: MO update (Alg. 2 line 13). ----
    outer_opt->step(theta_m, hypergrad);
  }
  // One linearization and one backward sweep per outer step.
  rec.count(hyper.evaluations());
  return rec.finish(std::move(theta_m), std::move(theta_j));
}

}  // namespace bismo

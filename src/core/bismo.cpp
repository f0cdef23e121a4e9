#include "core/bismo.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "grad/hvp.hpp"
#include "linalg/cg.hpp"
#include "math/grid_ops.hpp"

namespace bismo {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

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

std::string to_string(BismoVariant variant) {
  switch (variant) {
    case BismoVariant::kFd:
      return "BiSMO-FD";
    case BismoVariant::kNmn:
      return "BiSMO-NMN";
    case BismoVariant::kCg:
      return "BiSMO-CG";
  }
  return "BiSMO-?";
}

RunResult run_bismo(const SmoProblem& problem, BismoVariant variant,
                    const BismoOptions& options, const RunControl& control) {
  const auto start = Clock::now();
  const SmoConfig& cfg = problem.config();
  const LossWeights& w = cfg.weights;
  const AbbeGradientEngine& engine = problem.engine();
  const HypergradientOps hyper(engine);

  RunResult result;
  result.method = to_string(variant);

  RealGrid theta_m = problem.initial_theta_m();
  RealGrid theta_j = problem.initial_theta_j();
  auto outer_opt = make_optimizer(options.outer_optimizer, options.lr_mask);
  auto inner_opt = make_optimizer(options.inner_optimizer, options.lr_source);

  // CG warm start w0, re-initialized from each solve (Alg. 2 line 10).
  RealGrid cg_warm(theta_j.rows(), theta_j.cols(), 0.0);

  GradRequest source_only;
  source_only.mask = false;
  source_only.source = true;

  for (int outer = 0; outer < options.outer_steps; ++outer) {
    if (control.stop_requested()) {
      result.cancelled = true;
      break;
    }
    // ---- Lower level: unroll T SO steps (Alg. 2 lines 2-4). ----
    for (int t = 0; t < options.unroll_steps; ++t) {
      const SmoGradient g = engine.evaluate(theta_m, theta_j, source_only);
      ++result.gradient_evaluations;
      inner_opt->step(theta_j, g.grad_theta_j);
    }

    // ---- Hypergradient (Eq. 12). ----
    // Linearize once at (theta_M, theta_JT): a cache-hit source-only
    // evaluation that also keeps what the exact HVPs and the fused sweep
    // need (grad/hvp.hpp).
    const SmoGradient& g = hyper.linearize(theta_m, theta_j);
    result.trace.push_back({outer, w.gamma * g.l2 + w.eta * g.pvb, g.l2,
                            g.pvb, elapsed_seconds(start)});
    control.notify(result.trace.back());
    const RealGrid& v = g.grad_theta_j;  // dLmo/dthetaJ

    RealGrid wvec(theta_j.rows(), theta_j.cols(), 0.0);
    const double vn = norm2(v);
    if (vn > 1e-30) {
      switch (variant) {
        case BismoVariant::kFd: {
          // Eq. 13: w = alpha * v (identical to the K = 0 Neumann sum).
          const RealGrid hv = hyper.hvp(v);
          const double alpha = contraction_alpha(options.lr_source, v, hv);
          wvec = v * alpha;
          break;
        }
        case BismoVariant::kNmn: {
          // Eq. 16: w = alpha * sum_{k=0..K} (I - alpha H)^k v, evaluated
          // iteratively with one HVP per term.  The series only converges
          // where the Hessian is positive along the iterate (Lemma 2); a
          // growing term signals a negative/over-large curvature direction,
          // in which case the partial sum so far is kept (the same
          // safeguard CG applies on negative curvature).
          RealGrid hv = hyper.hvp(v);
          const double alpha = contraction_alpha(options.lr_source, v, hv);
          RealGrid cur = v;
          RealGrid acc = v;
          for (int k = 0; k < options.hyper_terms; ++k) {
            if (k > 0) hyper.hvp(cur, hv);
            cur = axpy(cur, -alpha, hv);
            const double cn = norm2(cur);
            if (!std::isfinite(cn) || cn > 1.5 * vn) break;
            acc += cur;
          }
          wvec = acc * alpha;
          break;
        }
        case BismoVariant::kCg: {
          // Eq. 17-18: K CG steps on [d2Lso/dthetaJ^2] w = v.
          CgOptions cg_opt;
          cg_opt.max_iterations = options.hyper_terms;
          cg_opt.damping = options.cg_damping;
          cg_opt.tolerance = 1e-10;
          const auto apply = [&](const RealGrid& x) { return hyper.hvp(x); };
          const CgResult sol = conjugate_gradient(apply, v, cg_warm, cg_opt);
          wvec = sol.x;
          cg_warm = wvec;  // warm start the next outer step
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
  result.gradient_evaluations += hyper.evaluations();

  result.theta_m = std::move(theta_m);
  result.theta_j = std::move(theta_j);
  result.wall_seconds = elapsed_seconds(start);
  return result;
}

}  // namespace bismo

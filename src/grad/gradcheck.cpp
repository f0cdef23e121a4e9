#include "grad/gradcheck.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/grid_ops.hpp"

namespace bismo {

GradCheckResult check_gradient(
    const std::function<double(const RealGrid&)>& loss_fn,
    const RealGrid& params, const RealGrid& analytic_grad, Rng& rng,
    std::size_t probes, double eps) {
  if (!params.same_shape(analytic_grad)) {
    throw std::invalid_argument("check_gradient: shape mismatch");
  }
  GradCheckResult result;
  // Scale floor: entries much smaller than the gradient's overall magnitude
  // carry finite-difference roundoff (the loss is O(1e6); differencing it
  // to probe a 1e-4-scale entry leaves few significant digits), so their
  // error is measured relative to the gradient scale rather than to the
  // (tiny) entry itself.
  double grad_scale = 0.0;
  for (const double g : analytic_grad) {
    grad_scale = std::max(grad_scale, std::abs(g));
  }
  const double floor = std::max(1e-3 * grad_scale, 1e-12);

  RealGrid work = params;
  for (std::size_t p = 0; p < probes; ++p) {
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(params.size()) - 1));
    const double saved = work[idx];
    work[idx] = saved + eps;
    const double lp = loss_fn(work);
    work[idx] = saved - eps;
    const double lm = loss_fn(work);
    work[idx] = saved;
    const double numeric = (lp - lm) / (2.0 * eps);
    const double analytic = analytic_grad[idx];
    const double abs_err = std::abs(analytic - numeric);
    const double denom =
        std::max({std::abs(analytic), std::abs(numeric), floor});
    result.max_abs_error = std::max(result.max_abs_error, abs_err);
    result.max_rel_error = std::max(result.max_rel_error, abs_err / denom);
    ++result.probes;
  }
  return result;
}

namespace {

/// Central difference of one gradient component along `dir` in theta_J.
RealGrid fd_along_source(const AbbeGradientEngine& engine,
                         const RealGrid& theta_m, const RealGrid& theta_j,
                         const RealGrid& dir, double eps_scale, bool mask) {
  if (!theta_j.same_shape(dir)) {
    throw std::invalid_argument("fd oracle: direction shape mismatch");
  }
  const double n = norm2(dir);
  if (n < 1e-30) {
    const RealGrid& shape = mask ? theta_m : theta_j;
    return RealGrid(shape.rows(), shape.cols(), 0.0);
  }
  const double eps = eps_scale / n;
  GradRequest req;
  req.mask = mask;
  req.source = !mask;
  const SmoGradient plus =
      engine.evaluate(theta_m, axpy(theta_j, eps, dir), req);
  const SmoGradient minus =
      engine.evaluate(theta_m, axpy(theta_j, -eps, dir), req);
  RealGrid out = mask ? plus.grad_theta_m - minus.grad_theta_m
                      : plus.grad_theta_j - minus.grad_theta_j;
  out *= 1.0 / (2.0 * eps);
  return out;
}

}  // namespace

RealGrid fd_hvp_source(const AbbeGradientEngine& engine,
                       const RealGrid& theta_m, const RealGrid& theta_j,
                       const RealGrid& v, double eps_scale) {
  return fd_along_source(engine, theta_m, theta_j, v, eps_scale,
                         /*mask=*/false);
}

RealGrid fd_mixed_mask_source(const AbbeGradientEngine& engine,
                              const RealGrid& theta_m,
                              const RealGrid& theta_j, const RealGrid& w,
                              double eps_scale) {
  return fd_along_source(engine, theta_m, theta_j, w, eps_scale,
                         /*mask=*/true);
}

}  // namespace bismo

// Numerical gradient checking harness: compares analytic gradients against
// central finite differences of the loss on a random probe subset of
// parameters.  Used by the test suite to certify every hand-derived adjoint,
// and home of the finite-difference second-order products that certify the
// exact ones in grad/hvp.hpp (tests and bench_micro only).
#ifndef BISMO_GRAD_GRADCHECK_HPP
#define BISMO_GRAD_GRADCHECK_HPP

#include <cstddef>
#include <functional>

#include "grad/abbe_grad.hpp"
#include "math/grid2d.hpp"
#include "math/rng.hpp"

namespace bismo {

/// Result of a gradient check.
struct GradCheckResult {
  double max_abs_error = 0.0;  ///< max |analytic - numeric| over probes
  double max_rel_error = 0.0;  ///< max relative error (guarded denominator)
  std::size_t probes = 0;      ///< number of entries checked
};

/// Check `analytic_grad` against central differences of `loss_fn` at
/// `params`, probing `probes` randomly chosen entries with step `eps`.
/// `loss_fn` must be deterministic.
GradCheckResult check_gradient(
    const std::function<double(const RealGrid&)>& loss_fn,
    const RealGrid& params, const RealGrid& analytic_grad, Rng& rng,
    std::size_t probes = 24, double eps = 1e-5);

/// Finite-difference oracle for [d2 L / dthetaJ^2] v: central differences
/// of the analytic source gradient at theta_J +/- eps v with
/// eps = eps_scale / ||v|| (two source-only evaluations, served from the
/// engine's image cache).  A zero grid for a (numerically) zero v.
RealGrid fd_hvp_source(const AbbeGradientEngine& engine,
                       const RealGrid& theta_m, const RealGrid& theta_j,
                       const RealGrid& v, double eps_scale = 1e-2);

/// Finite-difference oracle for [d2 L / dthetaM dthetaJ] w: central
/// differences of the analytic mask gradient at theta_J +/- eps w (two
/// mask-only evaluations), eps as in fd_hvp_source.
RealGrid fd_mixed_mask_source(const AbbeGradientEngine& engine,
                              const RealGrid& theta_m,
                              const RealGrid& theta_j, const RealGrid& w,
                              double eps_scale = 1e-2);

}  // namespace bismo

#endif  // BISMO_GRAD_GRADCHECK_HPP

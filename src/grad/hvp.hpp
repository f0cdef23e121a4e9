// Second-order building blocks for the bilevel hypergradient (Sec. 3.2):
//
//   HVP:   [d2 Lso / dthetaJ dthetaJ] v
//   mixed: [d2 Lso / dthetaM dthetaJ] w  (a vector over theta_M)
//
// computed by central finite differences *of analytic gradients* -- the
// standard practice of refs. [14, 15] the paper builds on:
//
//   HVP(v)   ~ [ gJ(thetaJ + eps v) - gJ(thetaJ - eps v) ] / (2 eps)
//   mixed(w) ~ [ gM(thetaJ + eps w) - gM(thetaJ - eps w) ] / (2 eps)
//
// with eps scaled inversely to ||v|| so the perturbation magnitude is
// controlled.  Each product costs exactly two gradient evaluations and
// never materializes a Hessian.  Both probes keep theta_M fixed, so the
// engine serves their forward images from its per-source-point image
// cache (AbbeGradientEngine) without a transform.
#ifndef BISMO_GRAD_HVP_HPP
#define BISMO_GRAD_HVP_HPP

#include "grad/abbe_grad.hpp"
#include "math/grid2d.hpp"

namespace bismo {

/// Finite-difference second-order operator factory over an Abbe SMO
/// objective.  Lso == Lmo == Lsmo (paper Eq. 9), so the same engine serves
/// both levels.
///
/// Not reentrant: the const methods reuse an internal probe buffer (and the
/// underlying engine shares per-slot workspaces), matching the one-
/// evaluation-at-a-time contract of the whole engine stack.  Give each
/// concurrent solve its own HypergradientOps *and* engine/workspace set.
class HypergradientOps {
 public:
  /// `engine` is borrowed and must outlive this object.  `eps_scale` is the
  /// numerator of the perturbation step eps = eps_scale / ||v||.
  explicit HypergradientOps(const AbbeGradientEngine& engine,
                            double eps_scale = 1e-2)
      : engine_(&engine), eps_scale_(eps_scale) {}

  /// [d2 Lso / dthetaJ^2] * v at (theta_m, theta_j).
  /// Returns a zero grid when v is (numerically) zero.
  RealGrid hvp_source(const RealGrid& theta_m, const RealGrid& theta_j,
                      const RealGrid& v) const;

  /// [d2 Lso / dthetaM dthetaJ] * w at (theta_m, theta_j); the mixed
  /// Jacobian-vector product of Eqs. 13/16/18, shaped like theta_M.
  RealGrid mixed_mask_source(const RealGrid& theta_m, const RealGrid& theta_j,
                             const RealGrid& w) const;

  /// Gradient-evaluation count consumed so far (for the TAT accounting the
  /// runtime benches report).
  long evaluations() const noexcept { return evals_; }

 private:
  /// theta_j + step * v into the reused probe buffer (no allocation after
  /// the first call; the engine does not retain the reference).
  const RealGrid& perturbed(const RealGrid& theta_j, double step,
                            const RealGrid& v) const;

  const AbbeGradientEngine* engine_;
  double eps_scale_;
  mutable long evals_ = 0;
  mutable RealGrid probe_;  ///< reused perturbation buffer
};

}  // namespace bismo

#endif  // BISMO_GRAD_HVP_HPP

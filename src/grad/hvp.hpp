// Exact second-order building blocks for the bilevel hypergradient
// (paper Sec. 3.2, Eqs. 12-18):
//
//   HVP:    [d2 Lso / dthetaJ dthetaJ] v
//   mixed:  [d2 Lso / dthetaM dthetaJ] w   (a vector over theta_M)
//
// both in closed form.  Notation at one point (theta_M, theta_J): the
// Abbe image is I = sum_s j_s P_s / W with P_s = |A_s|^2 (the engine's
// per-point image cache) and W = sum_s j_s; G = dL/dI and L'' = d2L/dI2
// per pixel (the loss is pixelwise in I, so its Hessian is diagonal); j'
// and j'' are the source activation's derivatives, and
//   gj_s = (<G, P_s> - <G, I>) / W           (= dL/dj_s).
//
// Linearization.  One cache-hit source-only evaluation yields the loss,
// v = dL/dthetaJ = j' .* gj, and keeps j, j', j'', W, I, G, L'' and gj.
//
// Source HVP.  With dj = j' .* v, dW = sum dj,
//   dI = (sum_s dj_s P_s - dW I) / W,   dG = L'' .* dI,
//   dgj_s = (<dG, P_s> - <dG, I> - <G, dI>) / W - gj_s dW / W,
//   (Hv)_s = j''_s v_s gj_s + j'_s dgj_s.
// That is one served intensity and one set of served dots (two 2-D
// transforms over the cached spectra, sim/source_image_cache.hpp) and
// pixel arithmetic: no resist sigmoid.
//
// Hypergradient.  d/dthetaM <dL/dthetaJ, w> = d/dthetaM <G, dI> with
// dj = j' .* w, which expands to per-point seeds on dP_s.  Together with
// the direct term dL/dthetaM:
//   dL/dthetaM - mixed . w
//     = Re adj( sum_s [ (2 j_s / W) Ghat - (2 dj_s / W) G ] .* A_s ) .* dM/dthetaM,
//   Ghat = (1 + dW / W) G - L'' .* dI,
// over the mask-path points (j_s > source_cutoff, as in evaluate): one
// two-seed sim::adjoint_pass per outer step.  `mixed_mask_source` runs the
// same sweep with the direct term zeroed.
//
// The finite-difference products these replace survive as test oracles
// (fd_hvp_source / fd_mixed_mask_source in grad/gradcheck.hpp).
#ifndef BISMO_GRAD_HVP_HPP
#define BISMO_GRAD_HVP_HPP

#include <cstdint>
#include <vector>

#include "grad/abbe_grad.hpp"
#include "math/grid2d.hpp"
#include "sim/imaging_model.hpp"

namespace bismo {

/// Exact second-order operators over an Abbe SMO objective.  Lso == Lmo
/// == Lsmo (paper Eq. 9), so the same engine serves both levels.
///
/// Not reentrant: the const methods reuse internal buffers (and the
/// underlying engine shares its image cache and per-slot workspaces),
/// matching the one-evaluation-at-a-time contract of the whole engine
/// stack.  Give each concurrent solve its own HypergradientOps *and*
/// engine/workspace set.
class HypergradientOps {
 public:
  /// `engine` is borrowed and must outlive this object.  The second
  /// argument is unused (it was the probe magnitude of the
  /// finite-difference operator this one replaced).
  explicit HypergradientOps(const AbbeGradientEngine& engine,
                            double unused = 0.0);

  /// Linearize at (theta_m, theta_j): one source-only evaluation served
  /// from the engine's image cache (filled on a miss).  Returns the loss
  /// terms and dL/dthetaJ (grad_theta_m empty), bitwise equal to
  /// `engine.evaluate(theta_m, theta_j, {mask=false, source=true})`.  The
  /// reference is valid until the next linearization.
  const SmoGradient& linearize(const RealGrid& theta_m,
                               const RealGrid& theta_j) const;

  /// [d2 Lso / dthetaJ^2] v at the linearization point, into `out`
  /// (resized when its shape differs; must not alias `v`).  A warmed call
  /// allocates nothing.
  /// Throws std::logic_error before the first linearization.
  void hvp(const RealGrid& v, RealGrid& out) const;
  RealGrid hvp(const RealGrid& v) const;

  /// dL/dthetaM - [d2 Lso / dthetaM dthetaJ] w at the linearization point
  /// (Eq. 12): one sim::adjoint_pass.
  RealGrid hypergradient(const RealGrid& w) const;

  /// [d2 Lso / dthetaJ^2] v at (theta_m, theta_j), linearizing first when
  /// the point's bits differ from the last one.  A zero grid for a zero v.
  RealGrid hvp_source(const RealGrid& theta_m, const RealGrid& theta_j,
                      const RealGrid& v) const;

  /// [d2 Lso / dthetaM dthetaJ] w at (theta_m, theta_j), shaped like
  /// theta_M: the `hypergradient` sweep without its direct term.  A zero
  /// grid for a zero w.
  RealGrid mixed_mask_source(const RealGrid& theta_m, const RealGrid& theta_j,
                             const RealGrid& w) const;

  /// Gradient-evaluation equivalents consumed so far (for the TAT
  /// accounting the benches report): one per linearization and one per
  /// adjoint sweep; HVPs cost none.
  long evaluations() const noexcept { return evals_; }

 private:
  /// Relinearize unless the last linearization was at these exact bits.
  void ensure_linearized(const RealGrid& theta_m,
                         const RealGrid& theta_j) const;
  /// dj = j' .* dir per point (dir_dj_), dI into di_; returns dW.
  double seed_direction(const sim::SourceImageCache& images,
                        const RealGrid& dir) const;
  /// The two-seed backward sweep; `direct` adds dL/dthetaM and negates
  /// the mixed term.
  RealGrid sweep(const RealGrid& w, bool direct) const;

  const AbbeGradientEngine* engine_;
  mutable long evals_ = 0;
  mutable bool linearized_ = false;
  mutable RealGrid key_m_;  ///< theta_M of the linearization
  mutable RealGrid key_j_;  ///< theta_J of the linearization
  mutable SmoGradient lin_;
  // Linearization state (I, G, L'' per pixel; per source point below).
  mutable double w_total_ = 0.0;
  mutable RealGrid intensity_;
  mutable RealGrid dl_di_;
  mutable RealGrid d2l_di2_;
  mutable std::vector<double> j_, dj_, d2j_, gj_;
  mutable std::vector<std::uint32_t> comps_;  ///< every point, in order
  // Direction buffers, reused across calls.
  mutable std::vector<double> dir_dj_;
  mutable std::vector<double> dots_;
  mutable RealGrid weighted_;  ///< sum_s dj_s P_s
  mutable RealGrid di_;
  mutable RealGrid seed_;
  mutable std::vector<sim::AdjointItem> items_;
};

}  // namespace bismo

#endif  // BISMO_GRAD_HVP_HPP

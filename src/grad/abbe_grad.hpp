// Hand-derived reverse-mode gradients of the Abbe-based SMO loss
// (paper Sec. 3.1-3.2) with respect to both parameter grids.
//
// Forward chain (per Table 1, Eqs. 2, 6-9):
//   theta_M --sigmoid--> M --FFT--> O --per-point pass-band + IFFT--> A_sigma
//   theta_J --sigmoid--> J;   S = sum_sigma j_sigma |A_sigma|^2;  W = sum j
//   I = S / W;   I_c = d_c^2 I;   Z_c = sigmoid(beta (I_c - I_tr));  Lsmo.
//
// Reverse chain (Wirtinger calculus through the FFTs):
//   dL/dS      = dL/dI / W
//   dL/dj_s    = sum_xy dL/dI * (|A_s|^2 - I) / W          (normalization!)
//   g_{A_s}    = 2 (j_s / W) * dL/dI .* A_s                (dL/d conj(A))
//   g_{B_s}    = ifft2_adjoint(g_{A_s})                    (B_s = H_s .* O)
//   g_O       += conj(H_s) .* g_{B_s}   restricted to the pass-band
//   g_M        = Re(fft2_adjoint(g_O));  g_theta = activation chain rule.
//
// Source gradients are accumulated over *all* valid sigma points (a point
// with j ~ 0 still needs |A_sigma|^2 so SO can revive it); mask gradients
// skip points whose weight is below `source_cutoff` since their
// contribution is proportional to j_sigma.
#ifndef BISMO_GRAD_ABBE_GRAD_HPP
#define BISMO_GRAD_ABBE_GRAD_HPP

#include <vector>

#include "grad/loss.hpp"
#include "litho/abbe.hpp"
#include "litho/activation.hpp"
#include "litho/resist.hpp"
#include "math/grid2d.hpp"
#include "sim/source_image_cache.hpp"

namespace bismo {

/// Loss value plus requested parameter gradients.
struct SmoGradient {
  double loss = 0.0;      ///< Lsmo = gamma*L2 + eta*Lpvb
  double l2 = 0.0;        ///< unweighted nominal term
  double pvb = 0.0;       ///< unweighted PVB term
  RealGrid grad_theta_m;  ///< dL/dtheta_M (empty when not requested)
  RealGrid grad_theta_j;  ///< dL/dtheta_J (empty when not requested)
};

/// Which gradients a call should produce.
struct GradRequest {
  bool mask = true;
  bool source = true;
};

/// What `AbbeGradientEngine::evaluate_source` returns and keeps: the served
/// forward and the source gradient's intermediates, which BiSMO's
/// second-order operators (grad/hvp.hpp) linearize around.
struct SourceEvaluation {
  SmoGradient grad;         ///< loss terms; grad_theta_j when asked
  RealGrid source;          ///< J = activated theta_J
  double total_weight = 0;  ///< W = sum_s j_s
  RealGrid intensity;       ///< I = sum_s j_s P_s / W
  RealGrid dl_di;           ///< G = dL/dI (empty without a gradient)
  RealGrid dact;            ///< j' on the source grid (source gradient only)
  std::vector<double> gj;   ///< dL/dj_s per point (source gradient only)
};

/// Differentiable Abbe-based SMO objective: forward evaluation and manual
/// adjoint gradients.  Evaluations are internally parallel over source
/// points via the engine's pool.
///
/// The engine owns a `sim::SourceImageCache` of the per-point images
/// |A_s|^2, stored as their spectra on the doubled-pupil disk, for the last
/// theta_M it filled them for, and it is the engine's only forward: every
/// call -- `evaluate` of any request kind, `loss_only` and `aerial` --
/// fills it on a miss and takes its intensity (and the source gradient's
/// reductions) from it.  Hits and misses return identical bits, and the
/// mask adjoint lists every point whatever the request, so a mask-only
/// call returns the full call's loss and mask gradient bit for bit and no
/// result depends on call history.  The served intensity agrees with a
/// per-point transform chain to rounding (<= 1e-12 of its maximum).  The
/// cache is mutable state behind const methods: like the shared
/// workspaces, it follows the one-evaluation-at-a-time contract
/// (thread-compatible, not thread-safe).
///
/// BiSMO's exact second-order operators (grad/hvp.hpp) read the same
/// cache through `source_images`: a source HVP is one served intensity and
/// one set of served dots (two 2-D transforms), and the hypergradient is
/// one two-seed `mask_adjoint` sweep.
class AbbeGradientEngine {
 public:
  /// `abbe` is borrowed and must outlive the engine.
  AbbeGradientEngine(const AbbeImaging& abbe, const RealGrid& target,
                     ResistModel resist = {}, ActivationConfig activation = {},
                     LossWeights weights = {}, ProcessWindow pw = {},
                     double source_cutoff = 1e-9);

  /// Loss and gradients at (theta_M, theta_J).
  SmoGradient evaluate(const RealGrid& theta_m, const RealGrid& theta_j,
                       const GradRequest& request = {}) const;

  /// `evaluate` without the mask adjoint: activate theta_J, serve I from
  /// the cache (filled on a miss), the loss, and with `request.source`
  /// gj_s = (<G, P_s> - <G, I>) / W and dL/dthetaJ = j' .* gj.  `out`
  /// keeps every intermediate (reusing its buffers); `d2l_di2`, when
  /// non-null, receives d2L/dI2 (evaluate_smo_loss).  Throws
  /// std::runtime_error when the source has no power.
  void evaluate_source(const RealGrid& theta_m, const RealGrid& theta_j,
                       const GradRequest& request, SourceEvaluation& out,
                       RealGrid* d2l_di2 = nullptr) const;

  /// Loss only (no gradients; cheaper backward pass skipped entirely).
  SmoLoss loss_only(const RealGrid& theta_m, const RealGrid& theta_j) const;

  /// Normalized aerial intensity for the given parameters (for metrics and
  /// visualization; applies activations internally).
  RealGrid aerial(const RealGrid& theta_m, const RealGrid& theta_j) const;

  /// The per-point images |A_s|^2 at theta_M, filling the cache on a miss
  /// (component c is source point c of `abbe().geometry().points()`).
  /// The reference stays valid until a call at another theta_M refills it.
  const sim::SourceImageCache& source_images(const RealGrid& theta_m) const;

  /// Mask-side backward sweep with caller-built seeds:
  ///   Re adj( sum_k (scale_k seed + scale2_k seed2) .* A_k ) .* dM/dtheta_M
  /// over `items` (sim::adjoint_pass; `seed2` may be null).  With
  /// seed = dL/dI and scale_k = 2 j_k / W over the mask-path points this is
  /// exactly the mask gradient `evaluate` returns.
  RealGrid mask_adjoint(const RealGrid& theta_m, const RealGrid& seed,
                        const std::vector<sim::AdjointItem>& items,
                        const RealGrid* seed2 = nullptr) const;

  const AbbeImaging& abbe() const noexcept { return *abbe_; }
  const RealGrid& target() const noexcept { return target_; }
  const ResistModel& resist() const noexcept { return resist_; }
  const ActivationConfig& activation() const noexcept { return activation_; }
  const LossWeights& weights() const noexcept { return weights_; }
  const ProcessWindow& process_window() const noexcept { return pw_; }
  /// Source weights at or below this skip the mask path (see evaluate).
  double source_cutoff() const noexcept { return source_cutoff_; }

 private:
  RealGrid mask_gradient(const RealGrid& theta_m, const RealGrid& mask,
                         const ComplexGrid& o, const RealGrid& seed,
                         const std::vector<sim::AdjointItem>& items,
                         const RealGrid* seed2) const;

  const AbbeImaging* abbe_;
  RealGrid target_;
  ResistModel resist_;
  ActivationConfig activation_;
  LossWeights weights_;
  ProcessWindow pw_;
  double source_cutoff_;
  mutable sim::SourceImageCache images_;
};

}  // namespace bismo

#endif  // BISMO_GRAD_ABBE_GRAD_HPP

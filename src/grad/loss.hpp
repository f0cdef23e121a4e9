// The SMO objective (paper Eqs. 7-9) and its reverse-mode seed.
//
//   L2   = || Z - Zt ||^2 / Npx                (Eq. 7, nominal dose)
//   Lpvb = (|| Zmax - Zt ||^2 + || Zmin - Zt ||^2) / Npx   (Eq. 8)
//   Lsmo = gamma * L2 + eta * Lpvb             (Eq. 9; == Lso == Lmo)
//
// The squared norms are *mean*-reduced over the Npx = Nm^2 pixels.  Eq. 7
// as printed is a plain sum, but the paper's hyperparameters only cohere
// with mean reduction (PyTorch's MSELoss default): gamma = 1000 with
// xi = 0.1 and a convergent Neumann series (Lemma 2 needs ||I - xi*H|| < 1)
// requires O(1..10) losses, and Fig. 3's y-axis spans log10(L) in
// [0.1, 0.7], i.e. L in [1.3, 5] -- the mean-reduced scale.  The *metrics*
// reported in Tables 3-4 (areas in nm^2) are unaffected; see
// metrics/metrics.hpp.
//
// Key identity used throughout the gradient engines: a dose corner scales
// the activated mask by d (M_c = d * M, Eq. 8), the imaging operator is
// linear in the mask and intensity is quadratic in the field, hence
//   I_c = d^2 * I.
// One aerial-image evaluation therefore yields all three resist images, and
// the three corners' adjoints collapse into a single dL/dI seed with d_c^2
// chain factors.
#ifndef BISMO_GRAD_LOSS_HPP
#define BISMO_GRAD_LOSS_HPP

#include "litho/optics.hpp"
#include "litho/resist.hpp"
#include "math/grid2d.hpp"

namespace bismo {

/// Loss weighting factors (paper Sec. 4: gamma = 1000, eta = 3000).
struct LossWeights {
  double gamma = 1000.0;  ///< weight of the nominal L2 term
  double eta = 3000.0;    ///< weight of the PVB term
};

/// Value of the SMO loss plus everything the backward pass needs.
struct SmoLoss {
  double total = 0.0;  ///< gamma * l2 + eta * pvb
  double l2 = 0.0;     ///< unweighted || Z - Zt ||^2 at nominal dose
  double pvb = 0.0;    ///< unweighted corner sum (Eq. 8)
  RealGrid z_nominal;  ///< sigmoid resist image at nominal dose
  RealGrid dl_di;      ///< dL/dI seed (all corners fused), or empty
};

/// Evaluate Lsmo from a normalized aerial image and optionally produce the
/// fused dL/dI seed for reverse mode.  `target` must match `intensity` in
/// shape (throws std::invalid_argument otherwise).
///
/// When `d2l_di2` is non-null it receives the per-pixel curvature
/// d2L/dI2 (the loss is pixelwise in I, so its Hessian is diagonal):
///   (1/Npx) sum_c w_c 2 beta^2 d_c^4 [ s_c^2 + (Z_c - Zt) s_c (1 - 2 Z_c) ],
/// s_c = Z_c (1 - Z_c), built from the same resist activations as the
/// seed.  The grid is resized only when its shape differs.
SmoLoss evaluate_smo_loss(const RealGrid& intensity, const RealGrid& target,
                          const ResistModel& resist,
                          const LossWeights& weights, const ProcessWindow& pw,
                          bool want_backprop, RealGrid* d2l_di2 = nullptr);

}  // namespace bismo

#endif  // BISMO_GRAD_LOSS_HPP

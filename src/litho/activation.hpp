// Parameterization of the optimization variables (paper Table 1):
//
//   Mask:    M = sigmoid(alpha_m * theta_M),  theta_M0 = +/- m0 from target
//   Source:  J = sigmoid(alpha_j * theta_J),  theta_J0 = +/- j0 from J0
//
// Both theta grids are unconstrained reals; the sigmoid keeps M in (0,1)
// (near-binary with steep alpha_m) and J grayscale in (0,1).  The cosine
// alternative mentioned (and rejected) in Sec. 3.1 is provided for the
// activation-ablation bench.
#ifndef BISMO_LITHO_ACTIVATION_HPP
#define BISMO_LITHO_ACTIVATION_HPP

#include "litho/source.hpp"
#include "math/grid2d.hpp"

namespace bismo {

/// Activation function choices for the ablation study.
enum class ActivationKind { kSigmoid, kCosine };

/// Steepness and initialization magnitudes from Table 1 / Sec. 4.
struct ActivationConfig {
  double alpha_mask = 9.0;    ///< alpha_m
  double mask_init = 1.0;     ///< m0
  double alpha_source = 2.0;  ///< alpha_j
  double source_init = 5.0;   ///< j0
  ActivationKind kind = ActivationKind::kSigmoid;
};

/// M = activation(alpha_m * theta_M).
RealGrid activate_mask(const RealGrid& theta_m, const ActivationConfig& cfg);

/// dM/dtheta_M expressed via the activated mask M (sigmoid path) or theta
/// (cosine path); shapes must match.
RealGrid mask_activation_derivative(const RealGrid& theta_m,
                                    const RealGrid& mask,
                                    const ActivationConfig& cfg);

/// J = activation(alpha_j * theta_J) masked to the valid sigma-disc points.
RealGrid activate_source(const RealGrid& theta_j,
                         const SourceGeometry& geometry,
                         const ActivationConfig& cfg);

/// dJ/dtheta_J (zero at invalid points).
RealGrid source_activation_derivative(const RealGrid& theta_j,
                                      const RealGrid& source,
                                      const SourceGeometry& geometry,
                                      const ActivationConfig& cfg);

/// d2J/dtheta_J2 (zero at invalid points): alpha_j^2 J (1-J)(1-2J) for the
/// sigmoid, the cosine's second derivative inside its unsaturated band.
RealGrid source_activation_second_derivative(const RealGrid& theta_j,
                                             const RealGrid& source,
                                             const SourceGeometry& geometry,
                                             const ActivationConfig& cfg);

/// theta_M initialization from a binary target pattern: +m0 where the
/// target is 1, -m0 elsewhere (Table 1; the initial mask is the target,
/// which also seeds SRAF growth during MO).
RealGrid init_mask_params(const RealGrid& target, const ActivationConfig& cfg);

/// theta_J initialization from a binary template source J0: +j0 where lit,
/// -j0 elsewhere (Table 1).
RealGrid init_source_params(const RealGrid& j0, const ActivationConfig& cfg);

}  // namespace bismo

#endif  // BISMO_LITHO_ACTIVATION_HPP

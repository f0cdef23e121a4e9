// Constant-threshold resist model with sigmoid smoothing (paper Eq. 6):
//   Z = sigmoid(beta * (I - I_tr))
// which keeps the print model differentiable for gradient-based SMO.
#ifndef BISMO_LITHO_RESIST_HPP
#define BISMO_LITHO_RESIST_HPP

#include "fft/kernels/kernel.hpp"
#include "math/grid2d.hpp"
#include "math/grid_ops.hpp"

namespace bismo {

/// Sigmoid threshold resist (Eq. 6).
struct ResistModel {
  double beta = 30.0;        ///< sigmoid steepness (paper Sec. 4: beta = 30)
  double threshold = 0.225;  ///< I_tr, the standard ILT print threshold
                             ///< (clear-field intensity normalized to 1.0)

  /// Continuous resist image Z from aerial intensity I, as one vectorized
  /// sigmoid pass through the active SIMD kernel.
  RealGrid apply(const RealGrid& intensity) const {
    RealGrid z(intensity.rows(), intensity.cols());
    fft::active_kernel().sigmoid(z.data(), intensity.data(), intensity.size(),
                                 beta, threshold);
    return z;
  }

  /// Hard-thresholded binary print (for metrics): I > threshold.
  RealGrid print(const RealGrid& intensity) const {
    return map(intensity,
               [this](double i) { return i > threshold ? 1.0 : 0.0; });
  }
};

}  // namespace bismo

#endif  // BISMO_LITHO_RESIST_HPP

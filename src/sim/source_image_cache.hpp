// Per-source-point image cache: the offline/online split of the Abbe sum.
//
// The Abbe image is linear in the source weights,
//
//   I = (1/W) sum_c j_c |A_c|^2,
//
// and every coherent field A_c depends on the mask alone.  With the mask
// parameters held fixed -- the whole lower level of BiSMO, every FD
// source HVP, the mixed term's perturbed evaluations -- the images
// |A_c|^2 are constants, so a `SourceImageCache` computes them once (one
// forward chain per component, the *fill*) and then serves each
// evaluation without any transform:
//
//   * the intensity is a weighted sum of cached images, run over the same
//     slot partition and slot-order combine as `accumulate_intensity`
//     with the `axpy_real` kernel op.  A fill stores each image through
//     the pipeline's |field|^2 epilogue at weight 1 into a zeroed grid
//     (fma(1, n, 0) = n), so the served intensity is bitwise equal to the
//     transform path's on every backend and in both pipeline modes;
//   * the source-gradient reduction sum_i dL/dI_i |A_c,i|^2 is one
//     `dot_real` per component.
//
// The cache is keyed by the exact bits of the caller's mask parameters
// plus the FFT backend and pipeline mode that produced the images.  It
// holds components x dim^2 doubles, allocated at the first fill.  It is
// not thread-safe: like the workspaces it uses, one evaluation at a time.
#ifndef BISMO_SIM_SOURCE_IMAGE_CACHE_HPP
#define BISMO_SIM_SOURCE_IMAGE_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fft/kernels/kernel.hpp"
#include "math/grid2d.hpp"
#include "sim/imaging_model.hpp"

namespace bismo::sim {

class SourceImageCache {
 public:
  /// True when the images were filled for exactly these key bits under
  /// the active FFT backend and pipeline mode.
  bool holds(const RealGrid& key) const;

  /// image(c) = |field(o, c)|^2 for every component of `model`, keyed by
  /// `key`.  Runs each component's forward chain through the slot
  /// workspaces; when the workspace set's field capture is armed, each
  /// field also lands in its capture entry for a following adjoint_pass.
  void fill(const ImagingModel& model, const ComplexGrid& o,
            const RealGrid& key);

  /// sum_k weights[k] * image(comps[k]) -- bitwise equal to
  /// `accumulate_intensity(model, o, comps, weights)` for the filled `o`.
  RealGrid intensity(const ImagingModel& model,
                     const std::vector<std::uint32_t>& comps,
                     const std::vector<double>& weights) const;

  /// out[c] = sum_i w[i] * image(c)[i] for every component (`out` is
  /// resized to the component count).
  void dots(const ImagingModel& model, const double* w,
            std::vector<double>& out) const;

 private:
  std::vector<RealGrid> images_;
  RealGrid key_;
  const fft::FftKernel* kernel_ = nullptr;
  bool fused_ = false;
  bool valid_ = false;
};

}  // namespace bismo::sim

#endif  // BISMO_SIM_SOURCE_IMAGE_CACHE_HPP

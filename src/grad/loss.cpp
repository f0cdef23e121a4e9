#include "grad/loss.hpp"

#include <algorithm>
#include <stdexcept>

#include "fft/kernels/kernel.hpp"
#include "math/grid_ops.hpp"

namespace bismo {

SmoLoss evaluate_smo_loss(const RealGrid& intensity, const RealGrid& target,
                          const ResistModel& resist,
                          const LossWeights& weights, const ProcessWindow& pw,
                          bool want_backprop, RealGrid* d2l_di2) {
  if (!intensity.same_shape(target)) {
    throw std::invalid_argument("evaluate_smo_loss: shape mismatch");
  }
  SmoLoss out;
  const std::size_t n = intensity.size();
  if (want_backprop) out.dl_di = RealGrid(intensity.rows(), intensity.cols());
  out.z_nominal = RealGrid(intensity.rows(), intensity.cols());
  if (d2l_di2 != nullptr && !d2l_di2->same_shape(intensity)) {
    d2l_di2->resize(intensity.rows(), intensity.cols());
  }

  const double d_min_sq = pw.dose_min * pw.dose_min;
  const double d_max_sq = pw.dose_max * pw.dose_max;

  // Resist activations as vectorized sigmoid passes (the exp-heavy part of
  // the loss), processed in fixed-size blocks: the dose-corner activations
  // live in small stack buffers consumed immediately by the fused
  // loss/gradient arithmetic, so the pass allocates nothing and retains
  // nothing while the kernel calls stay long enough to amortize.  The
  // dose-scaled intensity is staged first so the sigmoid argument
  // beta * (d^2*I - I_tr) is formed exactly as the old fused scalar loop
  // did; block order matches flat element order, so sums are bitwise
  // independent of the block size.
  const fft::FftKernel& kernel = fft::active_kernel();
  kernel.sigmoid(out.z_nominal.data(), intensity.data(), n, resist.beta,
                 resist.threshold);

  constexpr std::size_t kBlock = 2048;
  double z_min[kBlock];
  double z_max[kBlock];
  double scaled[kBlock];

  const double inv_n = 1.0 / static_cast<double>(n);
  // Curvature of one corner's squared error per unit (w_c 2 beta^2 d_c^4).
  const auto corner_curvature = [](double z, double t) {
    const double s = z * (1.0 - z);
    return s * s + (z - t) * s * (1.0 - 2.0 * z);
  };
  const double beta_sq = resist.beta * resist.beta;
  for (std::size_t start = 0; start < n; start += kBlock) {
    const std::size_t len = std::min(kBlock, n - start);
    for (std::size_t i = 0; i < len; ++i) {
      scaled[i] = d_min_sq * intensity[start + i];
    }
    kernel.sigmoid(z_min, scaled, len, resist.beta, resist.threshold);
    for (std::size_t i = 0; i < len; ++i) {
      scaled[i] = d_max_sq * intensity[start + i];
    }
    kernel.sigmoid(z_max, scaled, len, resist.beta, resist.threshold);

    for (std::size_t i = 0; i < len; ++i) {
      const double t = target[start + i];
      const double z_nom = out.z_nominal[start + i];

      const double diff_nom = z_nom - t;
      const double diff_min = z_min[i] - t;
      const double diff_max = z_max[i] - t;
      out.l2 += diff_nom * diff_nom;
      out.pvb += diff_min * diff_min + diff_max * diff_max;

      if (want_backprop) {
        // dL/dI = (1/Npx) sum_c w_c * 2 * diff_c * beta * Z_c(1-Z_c) * d_c^2.
        double g = weights.gamma * 2.0 * diff_nom * resist.beta * z_nom *
                   (1.0 - z_nom);
        g += weights.eta * 2.0 * diff_min * resist.beta * z_min[i] *
             (1.0 - z_min[i]) * d_min_sq;
        g += weights.eta * 2.0 * diff_max * resist.beta * z_max[i] *
             (1.0 - z_max[i]) * d_max_sq;
        out.dl_di[start + i] = g * inv_n;
      }
      if (d2l_di2 != nullptr) {
        double h = weights.gamma * corner_curvature(z_nom, t);
        h += weights.eta * corner_curvature(z_min[i], t) * d_min_sq * d_min_sq;
        h += weights.eta * corner_curvature(z_max[i], t) * d_max_sq * d_max_sq;
        (*d2l_di2)[start + i] = 2.0 * beta_sq * h * inv_n;
      }
    }
  }
  out.l2 *= inv_n;
  out.pvb *= inv_n;
  out.total = weights.gamma * out.l2 + weights.eta * out.pvb;
  return out;
}

}  // namespace bismo

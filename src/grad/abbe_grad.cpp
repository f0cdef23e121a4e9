#include "grad/abbe_grad.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "fft/fft.hpp"
#include "math/grid_ops.hpp"
#include "sim/imaging_model.hpp"

namespace bismo {

AbbeGradientEngine::AbbeGradientEngine(const AbbeImaging& abbe,
                                       const RealGrid& target,
                                       ResistModel resist,
                                       ActivationConfig activation,
                                       LossWeights weights, ProcessWindow pw,
                                       double source_cutoff)
    : abbe_(&abbe),
      target_(target),
      resist_(resist),
      activation_(activation),
      weights_(weights),
      pw_(pw),
      source_cutoff_(source_cutoff) {
  const std::size_t n = abbe.optics().mask_dim;
  if (target_.rows() != n || target_.cols() != n) {
    throw std::invalid_argument("AbbeGradientEngine: target shape mismatch");
  }
}

RealGrid AbbeGradientEngine::aerial(const RealGrid& theta_m,
                                    const RealGrid& theta_j) const {
  const RealGrid source =
      activate_source(theta_j, abbe_->geometry(), activation_);
  const RealGrid mask = activate_mask(theta_m, activation_);
  ComplexGrid o = to_complex(mask);
  fft2(o);
  return abbe_->aerial(o, source, source_cutoff_).intensity;
}

const sim::SourceImageCache& AbbeGradientEngine::source_images(
    const RealGrid& theta_m) const {
  if (!images_.holds(theta_m)) {
    ComplexGrid o = to_complex(activate_mask(theta_m, activation_));
    fft2(o);
    images_.fill(*abbe_, o, theta_m);
  }
  return images_;
}

RealGrid AbbeGradientEngine::mask_adjoint(
    const RealGrid& theta_m, const RealGrid& seed,
    const std::vector<sim::AdjointItem>& items, const RealGrid* seed2) const {
  const RealGrid mask = activate_mask(theta_m, activation_);
  ComplexGrid o = to_complex(mask);
  fft2(o);
  return mask_gradient(theta_m, mask, o, seed, items, seed2);
}

RealGrid AbbeGradientEngine::mask_gradient(
    const RealGrid& theta_m, const RealGrid& mask, const ComplexGrid& o,
    const RealGrid& seed, const std::vector<sim::AdjointItem>& items,
    const RealGrid* seed2) const {
  ComplexGrid go = sim::adjoint_pass(*abbe_, o, seed, items, nullptr, seed2);
  // Every mask-path point can be below the cutoff (e.g. an all-dark
  // source); the adjoint is then exactly zero, not absent.
  if (go.empty()) go = ComplexGrid(o.rows(), o.cols());
  const RealGrid gm = real_part(fft2_adjoint(go));
  return gm * mask_activation_derivative(theta_m, mask, activation_);
}

SmoLoss AbbeGradientEngine::loss_only(const RealGrid& theta_m,
                                      const RealGrid& theta_j) const {
  return evaluate_smo_loss(aerial(theta_m, theta_j), target_, resist_,
                           weights_, pw_, /*want_backprop=*/false);
}

SmoGradient AbbeGradientEngine::evaluate(const RealGrid& theta_m,
                                         const RealGrid& theta_j,
                                         const GradRequest& request) const {
  const SourceGeometry& geometry = abbe_->geometry();
  const auto& pts = geometry.points();

  const RealGrid source = activate_source(theta_j, geometry, activation_);
  const bool want_backprop = request.mask || request.source;

  // Image-cache policy, by request kind alone: a call that wants the
  // source gradient takes its intensity (and the gradient's reductions)
  // from the cache, filling it on a miss; a mask-only call runs the
  // transform path and never reads the cache.  Hits and misses return
  // the same bits, so no result depends on call history.
  const bool cached = request.source;
  const bool fill = cached && !images_.holds(theta_m);

  // The mask spectrum feeds the transform path, the fill and the mask
  // adjoint; a source-only hit never needs it.
  RealGrid mask;
  ComplexGrid o;
  if (!cached || fill || request.mask) {
    mask = activate_mask(theta_m, activation_);
    o = to_complex(mask);
    fft2(o);
  }

  // When a forward chain runs (the transform path, or a fill that takes
  // the chain) and the mask gradient is wanted, capture each component's
  // coherent field in it so the backward sweep seeds its adjoints from the
  // capture instead of recomputing every transform (fused mode only).
  // With narrow pass-bands the backward sweep runs the band-restricted
  // direct adjoint and needs no fields, so capture stays disarmed.
  sim::FieldCaptureScope capture(
      abbe_->workspaces(), abbe_->components(),
      request.mask && !sim::adjoint_uses_band_conv(*abbe_) &&
          (!cached ||
           (fill && !sim::image_fill_uses_autocorrelation(*abbe_))));

  if (fill) images_.fill(*abbe_, o, theta_m);
  const AbbeAerial fwd = cached ? abbe_->aerial(images_, source, source_cutoff_)
                                : abbe_->aerial(o, source, source_cutoff_);
  const double w_total = fwd.total_weight;
  if (w_total <= 0.0) {
    throw std::runtime_error("AbbeGradientEngine: source has no power");
  }

  const SmoLoss loss = evaluate_smo_loss(fwd.intensity, target_, resist_,
                                         weights_, pw_, want_backprop);

  SmoGradient out;
  out.loss = loss.total;
  out.l2 = loss.l2;
  out.pvb = loss.pvb;
  if (!want_backprop) return out;

  const RealGrid& dldi = loss.dl_di;

  if (request.mask) {
    // Backward sweep: one adjoint chain per mask-path source point, run
    // through the unified engine layer (sim::adjoint_pass) over the
    // per-slot workspaces -- allocation- and lock-free in steady state,
    // statically partitioned for determinism, seeded from the captured
    // forward fields when a capture ran.
    //
    // A request that also wants the source gradient lists every point
    // (source-only items do no work here: the cache serves their
    // reductions), which keeps the slot partition -- and so the mask
    // gradient's summation order -- independent of the cache.
    const std::size_t npts = pts.size();
    std::vector<sim::AdjointItem> items;
    items.reserve(npts);
    for (std::size_t k = 0; k < npts; ++k) {
      const double jw = source(pts[k].row, pts[k].col);
      const bool mask_path = jw > source_cutoff_;
      if (!mask_path && !request.source) continue;
      sim::AdjointItem item;
      item.component = static_cast<std::uint32_t>(k);
      item.mask = mask_path;
      item.scale = mask_path ? 2.0 * jw / w_total : 0.0;
      items.push_back(item);
    }
    out.grad_theta_m = mask_gradient(theta_m, mask, o, dldi, items, nullptr);
  }

  if (request.source) {
    // dL/dj_s = (sum dL/dI |A_s|^2 - sum dL/dI * I) / W over every valid
    // point (a point with j ~ 0 still needs its image so SO can revive
    // it), then the activation chain rule (zero at invalid sigma points).
    std::vector<double> gj_raw;
    images_.dots(*abbe_, dldi.data(), gj_raw);
    const double c_term = dot(dldi, fwd.intensity);
    RealGrid gj(geometry.dim(), geometry.dim(), 0.0);
    for (std::size_t k = 0; k < pts.size(); ++k) {
      gj(pts[k].row, pts[k].col) = (gj_raw[k] - c_term) / w_total;
    }
    const RealGrid dact =
        source_activation_derivative(theta_j, source, geometry, activation_);
    out.grad_theta_j = gj * dact;
  }
  return out;
}

}  // namespace bismo

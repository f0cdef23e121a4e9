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
  return abbe_->aerial(source_images(theta_m), source, source_cutoff_)
      .intensity;
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

void AbbeGradientEngine::evaluate_source(const RealGrid& theta_m,
                                         const RealGrid& theta_j,
                                         const GradRequest& request,
                                         SourceEvaluation& out,
                                         RealGrid* d2l_di2) const {
  const SourceGeometry& geometry = abbe_->geometry();
  const auto& pts = geometry.points();
  const sim::SourceImageCache& images = source_images(theta_m);
  out.source = activate_source(theta_j, geometry, activation_);
  AbbeAerial fwd = abbe_->aerial(images, out.source, source_cutoff_);
  if (fwd.total_weight <= 0.0) {
    throw std::runtime_error("AbbeGradientEngine: source has no power");
  }
  out.total_weight = fwd.total_weight;
  out.intensity = std::move(fwd.intensity);
  SmoLoss loss = evaluate_smo_loss(out.intensity, target_, resist_, weights_,
                                   pw_, request.mask || request.source,
                                   d2l_di2);
  out.grad = {loss.total, loss.l2, loss.pvb, {}, {}};
  out.dl_di = std::move(loss.dl_di);
  if (!request.source) return;

  // dL/dj_s = (sum dL/dI |A_s|^2 - sum dL/dI * I) / W over every valid
  // point (a point with j ~ 0 still needs its image so SO can revive it),
  // then the activation chain rule (zero at invalid sigma points).
  images.dots(*abbe_, out.dl_di.data(), out.gj);
  const double c_term = dot(out.dl_di, out.intensity);
  RealGrid gj(geometry.dim(), geometry.dim(), 0.0);
  for (std::size_t k = 0; k < pts.size(); ++k) {
    out.gj[k] = (out.gj[k] - c_term) / out.total_weight;
    gj(pts[k].row, pts[k].col) = out.gj[k];
  }
  out.dact = source_activation_derivative(theta_j, out.source, geometry,
                                          activation_);
  out.grad.grad_theta_j = gj * out.dact;
}

SmoGradient AbbeGradientEngine::evaluate(const RealGrid& theta_m,
                                         const RealGrid& theta_j,
                                         const GradRequest& request) const {
  // Every call images through the cache, filling it on a miss.  Hits and
  // misses return the same bits, so no result depends on call history.
  const bool fill = !images_.holds(theta_m);

  // The mask spectrum feeds the fill and the mask adjoint; a hit that
  // wants no mask gradient never needs it.
  RealGrid mask;
  ComplexGrid o;
  if (fill || request.mask) {
    mask = activate_mask(theta_m, activation_);
    o = to_complex(mask);
    fft2(o);
  }

  // When the fill takes the forward chain and the mask gradient is wanted,
  // capture each component's coherent field in it so the backward sweep
  // seeds its adjoints from the capture instead of recomputing every
  // transform.  With narrow pass-bands the backward sweep runs the
  // band-restricted direct adjoint and needs no fields, so capture stays
  // disarmed.
  sim::FieldCaptureScope capture(
      abbe_->workspaces(), abbe_->components(),
      fill && request.mask && !sim::adjoint_uses_band_conv(*abbe_) &&
          !sim::image_fill_uses_autocorrelation(*abbe_));

  if (fill) images_.fill(*abbe_, o, theta_m);
  SourceEvaluation eval;
  evaluate_source(theta_m, theta_j, request, eval);
  if (request.mask) {
    // Backward sweep: one adjoint chain per mask-path source point, run
    // through the unified engine layer (sim::adjoint_pass) over the
    // per-slot workspaces -- allocation- and lock-free in steady state,
    // statically partitioned for determinism, seeded from the captured
    // forward fields when a capture ran.
    //
    // Every point is listed (points below the cutoff do no work here),
    // so mask-only and full calls share one slot partition -- and so one
    // summation order for the mask gradient.
    const auto& pts = abbe_->geometry().points();
    std::vector<sim::AdjointItem> items;
    items.reserve(pts.size());
    for (std::size_t k = 0; k < pts.size(); ++k) {
      const double jw = eval.source(pts[k].row, pts[k].col);
      const bool mask_path = jw > source_cutoff_;
      sim::AdjointItem item;
      item.component = static_cast<std::uint32_t>(k);
      item.mask = mask_path;
      item.scale = mask_path ? 2.0 * jw / eval.total_weight : 0.0;
      items.push_back(item);
    }
    eval.grad.grad_theta_m =
        mask_gradient(theta_m, mask, o, eval.dl_di, items, nullptr);
  }
  return std::move(eval.grad);
}

}  // namespace bismo

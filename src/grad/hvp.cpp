#include "grad/hvp.hpp"

#include <cstring>
#include <stdexcept>

#include "litho/activation.hpp"
#include "math/grid_ops.hpp"

namespace bismo {
namespace {

bool same_bits(const RealGrid& a, const RealGrid& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool all_zero(const RealGrid& g) {
  for (const double x : g) {
    if (x != 0.0) return false;
  }
  return true;
}

}  // namespace

HypergradientOps::HypergradientOps(const AbbeGradientEngine& engine,
                                   double /*unused*/)
    : engine_(&engine) {}

const SmoGradient& HypergradientOps::linearize(const RealGrid& theta_m,
                                               const RealGrid& theta_j) const {
  const AbbeImaging& abbe = engine_->abbe();
  const SourceGeometry& geometry = abbe.geometry();
  const auto& pts = geometry.points();
  const ActivationConfig& act = engine_->activation();

  // The same arithmetic as a cache-hit source-only evaluate, keeping the
  // intermediates the second-order products need.
  const sim::SourceImageCache& images = engine_->source_images(theta_m);
  const RealGrid source = activate_source(theta_j, geometry, act);
  AbbeAerial fwd = abbe.aerial(images, source, engine_->source_cutoff());
  if (fwd.total_weight <= 0.0) {
    throw std::runtime_error("HypergradientOps: source has no power");
  }
  SmoLoss loss = evaluate_smo_loss(fwd.intensity, engine_->target(),
                                   engine_->resist(), engine_->weights(),
                                   engine_->process_window(),
                                   /*want_backprop=*/true, &d2l_di2_);
  w_total_ = fwd.total_weight;
  intensity_ = std::move(fwd.intensity);
  dl_di_ = std::move(loss.dl_di);

  images.dots(abbe, dl_di_.data(), gj_);
  const double c_term = dot(dl_di_, intensity_);
  const RealGrid dact =
      source_activation_derivative(theta_j, source, geometry, act);
  const RealGrid d2act =
      source_activation_second_derivative(theta_j, source, geometry, act);
  const std::size_t npts = pts.size();
  j_.resize(npts);
  dj_.resize(npts);
  d2j_.resize(npts);
  comps_.resize(npts);
  dir_dj_.resize(npts);
  di_.resize(intensity_.rows(), intensity_.cols());
  seed_.resize(intensity_.rows(), intensity_.cols());
  RealGrid gj(geometry.dim(), geometry.dim(), 0.0);
  for (std::size_t k = 0; k < npts; ++k) {
    const std::size_t r = pts[k].row;
    const std::size_t c = pts[k].col;
    gj_[k] = (gj_[k] - c_term) / w_total_;
    gj(r, c) = gj_[k];
    j_[k] = source(r, c);
    dj_[k] = dact(r, c);
    d2j_[k] = d2act(r, c);
    comps_[k] = static_cast<std::uint32_t>(k);
  }

  lin_.loss = loss.total;
  lin_.l2 = loss.l2;
  lin_.pvb = loss.pvb;
  lin_.grad_theta_m = RealGrid{};
  lin_.grad_theta_j = gj * dact;
  key_m_ = theta_m;
  key_j_ = theta_j;
  linearized_ = true;
  ++evals_;
  return lin_;
}

void HypergradientOps::ensure_linearized(const RealGrid& theta_m,
                                         const RealGrid& theta_j) const {
  if (!linearized_ || !same_bits(theta_m, key_m_) ||
      !same_bits(theta_j, key_j_)) {
    linearize(theta_m, theta_j);
  }
}

double HypergradientOps::seed_direction(const sim::SourceImageCache& images,
                                        const RealGrid& dir) const {
  if (!dir.same_shape(key_j_)) {
    throw std::invalid_argument("HypergradientOps: direction shape mismatch");
  }
  // bismo-lint: no-alloc-begin
  // Per-HVP work inside a CG/Neumann solve: the linearization sizes every
  // buffer, so a warmed HVP allocates nothing.
  const auto& pts = engine_->abbe().geometry().points();
  double dw = 0.0;
  for (std::size_t k = 0; k < pts.size(); ++k) {
    dir_dj_[k] = dj_[k] * dir(pts[k].row, pts[k].col);
    dw += dir_dj_[k];
  }
  images.intensity(engine_->abbe(), comps_, dir_dj_, weighted_);
  const double inv_w = 1.0 / w_total_;
  for (std::size_t i = 0; i < di_.size(); ++i) {
    di_[i] = (weighted_[i] - dw * intensity_[i]) * inv_w;
  }
  return dw;
  // bismo-lint: no-alloc-end
}

void HypergradientOps::hvp(const RealGrid& v, RealGrid& out) const {
  if (!linearized_) {
    throw std::logic_error("HypergradientOps::hvp before linearize");
  }
  if (!out.same_shape(v)) out.resize(v.rows(), v.cols());
  // The images are re-served for the linearized theta_M (refilled only if
  // a call at another theta_M evicted them since).
  const sim::SourceImageCache& images = engine_->source_images(key_m_);
  const double dw = seed_direction(images, v);
  // bismo-lint: no-alloc-begin
  const double inv_w = 1.0 / w_total_;
  // dG = L'' .* dI (in seed_), with the two scalar pairings.
  double dg_i = 0.0;
  double g_di = 0.0;
  for (std::size_t i = 0; i < di_.size(); ++i) {
    seed_[i] = d2l_di2_[i] * di_[i];
    dg_i += seed_[i] * intensity_[i];
    g_di += dl_di_[i] * di_[i];
  }
  images.dots(engine_->abbe(), seed_.data(), dots_);

  const auto& pts = engine_->abbe().geometry().points();
  out.fill(0.0);
  for (std::size_t k = 0; k < pts.size(); ++k) {
    const double dgj = (dots_[k] - dg_i - g_di) * inv_w - gj_[k] * dw * inv_w;
    const double vk = v(pts[k].row, pts[k].col);
    out(pts[k].row, pts[k].col) = d2j_[k] * vk * gj_[k] + dj_[k] * dgj;
  }
  // bismo-lint: no-alloc-end
}

RealGrid HypergradientOps::hvp(const RealGrid& v) const {
  RealGrid out;
  hvp(v, out);
  return out;
}

RealGrid HypergradientOps::sweep(const RealGrid& w, bool direct) const {
  const double dw = seed_direction(engine_->source_images(key_m_), w);
  const double inv_w = 1.0 / w_total_;
  // Mixed-term seeds: m1 = L'' .* dI - (dW/W) G on the 2 j/W scale, and G
  // on the 2 dj/W scale.  `direct` turns the first into G - m1 (Ghat) and
  // negates the second.
  const double ratio = dw * inv_w;
  for (std::size_t i = 0; i < seed_.size(); ++i) {
    const double m1 = d2l_di2_[i] * di_[i] - ratio * dl_di_[i];
    seed_[i] = direct ? dl_di_[i] - m1 : m1;
  }
  const double sign = direct ? -1.0 : 1.0;
  const double cutoff = engine_->source_cutoff();
  items_.clear();
  for (std::size_t k = 0; k < j_.size(); ++k) {
    if (!(j_[k] > cutoff)) continue;
    sim::AdjointItem item;
    item.component = static_cast<std::uint32_t>(k);
    item.mask = true;
    item.scale = 2.0 * j_[k] * inv_w;
    item.scale2 = sign * 2.0 * dir_dj_[k] * inv_w;
    items_.push_back(item);
  }
  ++evals_;
  return engine_->mask_adjoint(key_m_, seed_, items_, &dl_di_);
}

RealGrid HypergradientOps::hypergradient(const RealGrid& w) const {
  if (!linearized_) {
    throw std::logic_error("HypergradientOps::hypergradient before linearize");
  }
  return sweep(w, /*direct=*/true);
}

RealGrid HypergradientOps::hvp_source(const RealGrid& theta_m,
                                      const RealGrid& theta_j,
                                      const RealGrid& v) const {
  if (all_zero(v)) return RealGrid(theta_j.rows(), theta_j.cols(), 0.0);
  ensure_linearized(theta_m, theta_j);
  return hvp(v);
}

RealGrid HypergradientOps::mixed_mask_source(const RealGrid& theta_m,
                                             const RealGrid& theta_j,
                                             const RealGrid& w) const {
  if (all_zero(w)) return RealGrid(theta_m.rows(), theta_m.cols(), 0.0);
  ensure_linearized(theta_m, theta_j);
  return sweep(w, /*direct=*/false);
}

}  // namespace bismo

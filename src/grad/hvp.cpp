#include "grad/hvp.hpp"

#include <cstring>
#include <stdexcept>

#include "litho/activation.hpp"

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
  // The engine's source-only evaluation, keeping L'' besides what it keeps
  // itself; the per-point copies below are what the HVPs and the sweep read.
  engine_->evaluate_source(theta_m, theta_j, {false, true}, lin_, &d2l_di2_);
  const SourceGeometry& geometry = engine_->abbe().geometry();
  const auto& pts = geometry.points();
  const RealGrid d2act = source_activation_second_derivative(
      theta_j, lin_.source, geometry, engine_->activation());
  const std::size_t npts = pts.size();
  j_.resize(npts);
  dj_.resize(npts);
  d2j_.resize(npts);
  comps_.resize(npts);
  dir_dj_.resize(npts);
  di_.resize(lin_.intensity.rows(), lin_.intensity.cols());
  seed_.resize(lin_.intensity.rows(), lin_.intensity.cols());
  for (std::size_t k = 0; k < npts; ++k) {
    const std::size_t r = pts[k].row;
    const std::size_t c = pts[k].col;
    j_[k] = lin_.source(r, c);
    dj_[k] = lin_.dact(r, c);
    d2j_[k] = d2act(r, c);
    comps_[k] = static_cast<std::uint32_t>(k);
  }
  key_m_ = theta_m;
  key_j_ = theta_j;
  linearized_ = true;
  ++evals_;
  return lin_.grad;
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
  const double inv_w = 1.0 / lin_.total_weight;
  for (std::size_t i = 0; i < di_.size(); ++i) {
    di_[i] = (weighted_[i] - dw * lin_.intensity[i]) * inv_w;
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
  const double inv_w = 1.0 / lin_.total_weight;
  // dG = L'' .* dI (in seed_), with the two scalar pairings.
  double dg_i = 0.0;
  double g_di = 0.0;
  for (std::size_t i = 0; i < di_.size(); ++i) {
    seed_[i] = d2l_di2_[i] * di_[i];
    dg_i += seed_[i] * lin_.intensity[i];
    g_di += lin_.dl_di[i] * di_[i];
  }
  images.dots(engine_->abbe(), seed_.data(), dots_);

  const auto& pts = engine_->abbe().geometry().points();
  out.fill(0.0);
  for (std::size_t k = 0; k < pts.size(); ++k) {
    const double dgj =
        (dots_[k] - dg_i - g_di) * inv_w - lin_.gj[k] * dw * inv_w;
    const double vk = v(pts[k].row, pts[k].col);
    out(pts[k].row, pts[k].col) = d2j_[k] * vk * lin_.gj[k] + dj_[k] * dgj;
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
  const double inv_w = 1.0 / lin_.total_weight;
  // Mixed-term seeds: m1 = L'' .* dI - (dW/W) G on the 2 j/W scale, and G
  // on the 2 dj/W scale.  `direct` turns the first into G - m1 (Ghat) and
  // negates the second.
  const double ratio = dw * inv_w;
  for (std::size_t i = 0; i < seed_.size(); ++i) {
    const double m1 = d2l_di2_[i] * di_[i] - ratio * lin_.dl_di[i];
    seed_[i] = direct ? lin_.dl_di[i] - m1 : m1;
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
  return engine_->mask_adjoint(key_m_, seed_, items_, &lin_.dl_di);
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

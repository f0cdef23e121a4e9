// Per-point imaging reference: the test oracle of the fused imaging
// chains (sim/pipeline.hpp), the pooled passes of sim/imaging_model.hpp
// (field capture and the band-convolution adjoint included), the spectral
// image cache (sim/source_image_cache.hpp) and the Abbe gradient engine.
//
// Every quantity is computed one component at a time from its definition,
// through public APIs only:
//
//   spectrum_c = o .* band_c            (zero off the band bins)
//   field_c    = ifft2(spectrum_c)      (the generic transform, every row)
//   I          = sum_k w_k |field_k|^2
//   g_O[bins] += conj(band_c) .* ifft2_adjoint(seed_c .* field_c),
//                seed_c = scale dldi (+ scale2 dldi2)
//   wns[k]     = sum_i dldi[i] |field_k,i|^2
//
// -- no row skipping, no fused epilogue, no field capture, no band
// convolution and no cache.  The engine-level functions drive it through
// the library's activation and loss functions along the chain that
// grad/abbe_grad.hpp documents.  Header-only and free of gtest, so
// bench_fused times and checks against the same code.
#ifndef BISMO_TESTS_IMAGING_REFERENCE_HPP
#define BISMO_TESTS_IMAGING_REFERENCE_HPP

#include <complex>
#include <cstdint>
#include <vector>

#include "fft/fft.hpp"
#include "grad/abbe_grad.hpp"
#include "grad/loss.hpp"
#include "litho/abbe.hpp"
#include "litho/activation.hpp"
#include "math/grid2d.hpp"
#include "math/grid_ops.hpp"
#include "sim/imaging_model.hpp"

namespace bismo::reference {

/// o restricted to the band: o[bin] * vals[k] at bin k, zero elsewhere.
inline ComplexGrid band_spectrum(const ComplexGrid& o,
                                 const sim::BandRef& band) {
  ComplexGrid s(o.rows(), o.cols());
  for (std::size_t k = 0; k < band.nbins; ++k) {
    const std::uint32_t bin = band.bins[k];
    s[bin] = band.vals != nullptr ? o[bin] * band.vals[k] : o[bin];
  }
  return s;
}

/// Normalized coherent field of one band: ifft2 of the band spectrum.
inline ComplexGrid field(const ComplexGrid& o, const sim::BandRef& band) {
  ComplexGrid f = band_spectrum(o, band);
  ifft2(f);
  return f;
}

/// sum_k weights[k] * |field(comps[k])|^2.
inline RealGrid intensity(const sim::ImagingModel& model, const ComplexGrid& o,
                          const std::vector<std::uint32_t>& comps,
                          const std::vector<double>& weights) {
  RealGrid out(o.rows(), o.cols(), 0.0);
  for (std::size_t k = 0; k < comps.size(); ++k) {
    const ComplexGrid f = field(o, model.component_band(comps[k]));
    for (std::size_t i = 0; i < f.size(); ++i) {
      out[i] += weights[k] * std::norm(f[i]);
    }
  }
  return out;
}

/// The direct adjoint of `sim::adjoint_pass`, item by item: returns g_O (a
/// zero grid when no item has `mask`) and, when `wns` is non-null, fills
/// wns[k] = sum_i dldi[i] |field_k,i|^2 for every item.
inline ComplexGrid adjoint(const sim::ImagingModel& model, const ComplexGrid& o,
                           const RealGrid& dldi,
                           const std::vector<sim::AdjointItem>& items,
                           std::vector<double>* wns = nullptr,
                           const RealGrid* dldi2 = nullptr) {
  ComplexGrid go(o.rows(), o.cols());
  if (wns != nullptr) wns->assign(items.size(), 0.0);
  for (std::size_t k = 0; k < items.size(); ++k) {
    const sim::AdjointItem& item = items[k];
    if (!item.mask && wns == nullptr) continue;
    const sim::BandRef band = model.component_band(item.component);
    const ComplexGrid f = field(o, band);
    if (wns != nullptr) {
      double sum = 0.0;
      for (std::size_t i = 0; i < f.size(); ++i) {
        sum += dldi[i] * std::norm(f[i]);
      }
      (*wns)[k] = sum;
    }
    if (!item.mask) continue;
    ComplexGrid seeded(f.rows(), f.cols());
    for (std::size_t i = 0; i < f.size(); ++i) {
      double seed = item.scale * dldi[i];
      if (dldi2 != nullptr) seed += item.scale2 * (*dldi2)[i];
      seeded[i] = seed * f[i];
    }
    const ComplexGrid g = ifft2_adjoint(seeded);
    for (std::size_t b = 0; b < band.nbins; ++b) {
      const std::uint32_t bin = band.bins[b];
      go[bin] += band.vals != nullptr ? std::conj(band.vals[b]) * g[bin]
                                      : g[bin];
    }
  }
  return go;
}

/// The forward half of an Abbe evaluation: activations, mask spectrum and
/// the normalized aerial image over the points above the source cutoff.
struct AbbeForward {
  RealGrid source;
  RealGrid mask;
  ComplexGrid o;
  RealGrid intensity;
  double total_weight = 0.0;
};

inline AbbeForward abbe_forward(const AbbeGradientEngine& engine,
                                const RealGrid& theta_m,
                                const RealGrid& theta_j) {
  const AbbeImaging& abbe = engine.abbe();
  const SourceGeometry& geometry = abbe.geometry();
  AbbeForward fwd;
  fwd.source = activate_source(theta_j, geometry, engine.activation());
  fwd.mask = activate_mask(theta_m, engine.activation());
  fwd.o = to_complex(fwd.mask);
  fft2(fwd.o);
  std::vector<std::uint32_t> comps;
  std::vector<double> weights;
  const auto& pts = geometry.points();
  for (std::size_t k = 0; k < pts.size(); ++k) {
    const double j = fwd.source(pts[k].row, pts[k].col);
    fwd.total_weight += j;
    if (j > engine.source_cutoff()) {
      comps.push_back(static_cast<std::uint32_t>(k));
      weights.push_back(j);
    }
  }
  fwd.intensity = intensity(abbe, fwd.o, comps, weights);
  if (fwd.total_weight > 0.0) fwd.intensity *= 1.0 / fwd.total_weight;
  return fwd;
}

/// Loss and both gradients of `engine`'s objective, per point: what
/// `engine.evaluate(theta_m, theta_j)` returns, up to rounding.
inline SmoGradient abbe_gradient(const AbbeGradientEngine& engine,
                                 const RealGrid& theta_m,
                                 const RealGrid& theta_j) {
  const AbbeImaging& abbe = engine.abbe();
  const SourceGeometry& geometry = abbe.geometry();
  const auto& pts = geometry.points();
  const AbbeForward fwd = abbe_forward(engine, theta_m, theta_j);
  const SmoLoss loss =
      evaluate_smo_loss(fwd.intensity, engine.target(), engine.resist(),
                        engine.weights(), engine.process_window(),
                        /*want_backprop=*/true);
  std::vector<sim::AdjointItem> items(pts.size());
  for (std::size_t k = 0; k < pts.size(); ++k) {
    const double j = fwd.source(pts[k].row, pts[k].col);
    items[k].component = static_cast<std::uint32_t>(k);
    items[k].mask = j > engine.source_cutoff();
    items[k].scale = items[k].mask ? 2.0 * j / fwd.total_weight : 0.0;
  }
  std::vector<double> wns;
  const ComplexGrid go = adjoint(abbe, fwd.o, loss.dl_di, items, &wns);

  SmoGradient out;
  out.loss = loss.total;
  out.l2 = loss.l2;
  out.pvb = loss.pvb;
  out.grad_theta_m =
      real_part(fft2_adjoint(go)) *
      mask_activation_derivative(theta_m, fwd.mask, engine.activation());
  const double c_term = dot(loss.dl_di, fwd.intensity);
  RealGrid gj(geometry.dim(), geometry.dim(), 0.0);
  for (std::size_t k = 0; k < pts.size(); ++k) {
    gj(pts[k].row, pts[k].col) = (wns[k] - c_term) / fwd.total_weight;
  }
  out.grad_theta_j = gj * source_activation_derivative(theta_j, fwd.source,
                                                       geometry,
                                                       engine.activation());
  return out;
}

}  // namespace bismo::reference

#endif  // BISMO_TESTS_IMAGING_REFERENCE_HPP

#include "sim/imaging_model.hpp"

#include <atomic>
#include <cmath>
#include <stdexcept>

#include "fft/fft.hpp"
#include "fft/kernels/kernel.hpp"
#include "math/grid_ops.hpp"
#include "parallel/reduction.hpp"

namespace bismo::sim {

namespace {

std::atomic<std::uint64_t> g_adjoint_passes{0};

/// One item of the band-restricted direct adjoint (see adjoint_pass).
/// With D = FFT2(dldi) and S = o .* vals over the band bins, evaluates
/// U = (D (*) S)|_band, adds conj(vals) .* U * scale / N^2 into `accum`
/// (when non-null) and returns the wns pairing (1/N^2) Re <S, U>.  With
/// kTwoSeeds the same index walk also convolves S with D2 = FFT2(dldi2),
/// and the scatter takes scale * U + scale2 * U2.
template <bool kTwoSeeds>
double band_conv_item(const BandRef& band, const ComplexGrid& o,
                      const std::complex<double>* dd,
                      const std::complex<double>* dd2, const AdjointItem& item,
                      std::size_t n, SimWorkspace& ws,
                      std::complex<double>* accum) {
  // bismo-lint: no-alloc-begin
  const std::uint32_t un = static_cast<std::uint32_t>(n);
  const double nn = static_cast<double>(n) * static_cast<double>(n);
  const double inv_n2 = 1.0 / (nn * nn);
  const std::size_t nb = band.nbins;
  const SimWorkspace::BandConvScratch scratch = ws.band_conv_scratch(nb);
  std::complex<double>* sval = scratch.vals;
  std::uint32_t* brow = scratch.rows;
  std::uint32_t* bcol = scratch.cols;
  for (std::size_t i = 0; i < nb; ++i) {
    const std::uint32_t bin = band.bins[i];
    brow[i] = bin / un;
    bcol[i] = bin % un;
    sval[i] =
        band.vals != nullptr ? o.data()[bin] * band.vals[i] : o.data()[bin];
  }
  const double go_fac = item.scale * inv_n2;
  const double go_fac2 = item.scale2 * inv_n2;
  double wacc = 0.0;
  for (std::size_t i = 0; i < nb; ++i) {
    const std::uint32_t ri = brow[i];
    const std::uint32_t ci = bcol[i];
    std::complex<double> u{};
    std::complex<double> u2{};
    for (std::size_t j = 0; j < nb; ++j) {
      const std::uint32_t dr = ri >= brow[j] ? ri - brow[j] : ri + un - brow[j];
      const std::uint32_t dc = ci >= bcol[j] ? ci - bcol[j] : ci + un - bcol[j];
      const std::size_t at = std::size_t{dr} * n + dc;
      u += sval[j] * dd[at];
      if constexpr (kTwoSeeds) u2 += sval[j] * dd2[at];
    }
    wacc += sval[i].real() * u.real() + sval[i].imag() * u.imag();
    if (accum != nullptr) {
      const std::complex<double> v = band.vals != nullptr
                                         ? std::conj(band.vals[i])
                                         : std::complex<double>{1.0, 0.0};
      if constexpr (kTwoSeeds) {
        accum[band.bins[i]] += v * (u * go_fac + u2 * go_fac2);
      } else {
        accum[band.bins[i]] += v * u * go_fac;
      }
    }
  }
  return wacc * inv_n2;
  // bismo-lint: no-alloc-end
}

}  // namespace

std::uint64_t adjoint_pass_calls() {
  return g_adjoint_passes.load(std::memory_order_relaxed);
}

bool adjoint_uses_band_conv(const ImagingModel& model) {
  if (!fusion_enabled()) return false;
  const std::size_t n = model.grid_dim();
  // Same shape gate as ImagingPipeline::build: non-power-of-two and tiny
  // grids take the staged path in both modes, identically.
  if (n < 8 || (n & (n - 1)) != 0) return false;
  if (fft::active_kernel().pow2_cols_fused == nullptr) return false;
  const std::size_t comps = model.components();
  if (comps == 0) return false;
  // Direct convolution is O(nbins^2) per component against ~N log N for
  // the transform chain; all-or-nothing so one wide band (e.g. a dense
  // SOCS kernel) keeps the whole pass on the cached-field chains.
  const std::size_t budget = 2 * n * n;
  for (std::size_t c = 0; c < comps; ++c) {
    const BandRef b = model.component_band(c);
    if (b.nbins * b.nbins > budget) return false;
  }
  return true;
}

void ImagingModel::field_into(const ComplexGrid& o, std::size_t c,
                              SimWorkspace& ws) const {
  ws.forward_field(o, component_band(c), nullptr, 0.0, nullptr);
}

void ImagingModel::adjoint_accumulate(std::size_t c, SimWorkspace& ws,
                                      ComplexGrid& go) const {
  const BandRef band = component_band(c);
  ws.adjoint_band_accumulate(band.bins, band.vals, band.nbins, band.rows,
                             band.nrows, go);
}

RealGrid accumulate_intensity(const ImagingModel& model, const ComplexGrid& o,
                              const std::vector<std::uint32_t>& comps,
                              const std::vector<double>& weights) {
  const std::size_t n = model.grid_dim();
  RealGrid out(n, n, 0.0);
  if (comps.empty()) return out;

  WorkspaceSet& set = model.workspaces();
  const std::size_t slots = reduction_slots(comps.size());
  auto task = [&](std::size_t s) {
    const SlotRange range = slot_range(s, slots, comps.size());
    SimWorkspace& ws = set.at(s);
    ws.ensure(n);
    RealGrid& acc = ws.intensity_accum();
    acc.fill(0.0);
    // One fused chain per component: the |field|^2 accumulate runs inside
    // the column pass's final butterfly stage.  An armed field capture
    // redirects the chain's destination into the cache entry, so the
    // adjoint pass of the same evaluation skips its forward recompute.
    for (std::size_t k = range.begin; k < range.end; ++k) {
      ComplexGrid* dest =
          set.capturing() ? &set.capture_slot(comps[k]) : nullptr;
      ws.forward_field(o, model.component_band(comps[k]), &acc, weights[k],
                       nullptr, dest);
    }
  };
  run_slots(model, slots, task);
  combine_slot_partials(out, slots, [&](std::size_t s) -> const RealGrid& {
    return set.at(s).intensity_accum();
  });
  return out;
}

ComplexGrid adjoint_pass(const ImagingModel& model, const ComplexGrid& o,
                         const RealGrid& dldi,
                         const std::vector<AdjointItem>& items,
                         std::vector<double>* wns, const RealGrid* dldi2) {
  g_adjoint_passes.fetch_add(1, std::memory_order_relaxed);
  if (dldi2 != nullptr && wns != nullptr) {
    throw std::invalid_argument("adjoint_pass: wns needs a single seed");
  }
  const std::size_t n = model.grid_dim();
  if (items.empty()) {
    if (wns != nullptr) wns->clear();
    return ComplexGrid{};
  }
  bool any_mask = false;
  for (const AdjointItem& it : items) any_mask = any_mask || it.mask;
  // Slots write disjoint item ranges, so the shared output list is safe.
  if (wns != nullptr) wns->assign(items.size(), 0.0);

  // The band scatter only ever writes rows in the union of the mask
  // items' band rows, so in fused mode the per-slot accumulator zeroing
  // and the final combine are restricted to that row set.  The pattern
  // depends only on the item list (never on the slot partition), and rows
  // outside it are exactly zero either way, so results are unchanged.
  // Staged mode keeps the dense sweeps, so it stays the faithful
  // per-stage reference.
  const bool sparse_combine = any_mask && fusion_enabled();
  std::vector<std::uint8_t> row_union(sparse_combine ? n : 0, 0);
  if (sparse_combine) {
    for (const AdjointItem& it : items) {
      if (!it.mask) continue;
      const BandRef band = model.component_band(it.component);
      for (std::size_t i = 0; i < band.nrows; ++i) row_union[band.rows[i]] = 1;
    }
  }
  const auto for_each_union_run = [&](auto&& fn) {
    std::size_t r = 0;
    while (r < n) {
      if (!row_union[r]) {
        ++r;
        continue;
      }
      std::size_t e = r + 1;
      while (e < n && row_union[e]) ++e;
      fn(r, e - r);
      r = e;
    }
  };

  // Band-restricted direct adjoint (fused mode, narrow bands).  With
  // D = FFT2(dldi), the cotangent spectrum of component c is the circular
  // convolution
  //   FFT2(dldi .* field_c)[k] = (1/N) sum_j S_c[j] D[k - j],
  // where S_c = o .* vals over the band bins -- and the band scatter only
  // ever reads it at those same bins, so U_c = (D (*) S_c)|_band is all
  // that is needed: O(nbins^2) multiply-adds per component in place of a
  // dense column transform.  The wns reduction is the matching Parseval
  // pairing  sum_i dldi[i] |field_c,i|^2 = (1/N^2) Re sum_k conj(S_c[k])
  // U_c[k].  No per-component transform and no coherent field at all (the
  // gradient engines skip arming the capture; see adjoint_uses_band_conv).
  const bool band_conv = adjoint_uses_band_conv(model);
  ComplexGrid dspec;
  ComplexGrid dspec2;
  if (band_conv) {
    dspec = to_complex(dldi);
    fft2(dspec);
    if (dldi2 != nullptr) {
      dspec2 = to_complex(*dldi2);
      fft2(dspec2);
    }
  }

  WorkspaceSet& set = model.workspaces();
  const fft::FftKernel& kernel = fft::active_kernel();
  const std::size_t slots = reduction_slots(items.size());
  auto task = [&](std::size_t s) {
    // bismo-lint: no-alloc-begin
    // Per-slot item loop: every buffer lives in the slot workspace, so a
    // warmed pass allocates nothing per item.
    const SlotRange range = slot_range(s, slots, items.size());
    SimWorkspace& ws = set.at(s);
    ws.ensure(n);
    if (any_mask) {
      ComplexGrid& accum = ws.adjoint_accum();
      if (sparse_combine) {
        for_each_union_run([&](std::size_t row, std::size_t count) {
          std::fill_n(accum.data() + row * n, count * n,
                      std::complex<double>{});
        });
      } else {
        accum.fill(std::complex<double>{});
      }
    }
    if (band_conv) {
      const std::complex<double>* dd2 =
          dldi2 != nullptr ? dspec2.data() : nullptr;
      for (std::size_t k = range.begin; k < range.end; ++k) {
        const AdjointItem& item = items[k];
        if (!item.mask && wns == nullptr) continue;
        std::complex<double>* accum =
            item.mask ? ws.adjoint_accum().data() : nullptr;
        const BandRef band = model.component_band(item.component);
        const double item_wns =
            dd2 != nullptr
                ? band_conv_item<true>(band, o, dspec.data(), dd2, item, n,
                                       ws, accum)
                : band_conv_item<false>(band, o, dspec.data(), nullptr, item,
                                        n, ws, accum);
        if (wns != nullptr) (*wns)[k] = item_wns;
      }
      return;
    }
    for (std::size_t k = range.begin; k < range.end; ++k) {
      const AdjointItem& item = items[k];
      if (!item.mask && wns == nullptr) continue;
      const BandRef band = model.component_band(item.component);
      // Two seeds combine into the slot's seed buffer (wns is null then,
      // so every remaining item has `mask`).
      const double* seed = dldi.data();
      double seed_scale = item.scale;
      if (dldi2 != nullptr) {
        RealGrid& combined = ws.seed_scratch();
        for (std::size_t i = 0; i < combined.size(); ++i) {
          combined[i] = item.scale * dldi[i] + item.scale2 * (*dldi2)[i];
        }
        seed = combined.data();
        seed_scale = 1.0;
      }
      const ComplexGrid* cached = set.captured_field(item.component);
      if (cached != nullptr) {
        // The intensity pass already produced this field; the forward
        // transform is skipped entirely.  The adjoint chain's seeded
        // loads compute the wns reduction in the same sweep, so the
        // cached grid is read exactly once; a source-only item (no
        // adjoint) falls back to the standalone vectorized reduction.
        if (item.mask) {
          const double item_wns = ws.adjoint_seed_accumulate(
              *cached, seed, seed_scale, band, ws.adjoint_accum(),
              wns != nullptr);
          if (wns != nullptr) (*wns)[k] = item_wns;
        } else {
          (*wns)[k] = kernel.weighted_norm_sum(dldi.data(), cached->data(),
                                               cached->size());
        }
        continue;
      }
      const double item_wns = ws.forward_field(
          o, band, nullptr, 0.0, wns != nullptr ? dldi.data() : nullptr);
      if (wns != nullptr) (*wns)[k] = item_wns;
      if (item.mask) {
        ws.adjoint_seed_accumulate(ws.field(), seed, seed_scale, band,
                                   ws.adjoint_accum());
      }
    }
    // bismo-lint: no-alloc-end
  };
  run_slots(model, slots, task);

  if (!any_mask) return ComplexGrid{};
  if (sparse_combine) {
    ComplexGrid go(n, n);  // rows outside the band union stay exactly zero
    for (std::size_t s = 0; s < slots; ++s) {
      const ComplexGrid& partial = set.at(s).adjoint_accum();
      for_each_union_run([&](std::size_t row, std::size_t count) {
        kernel.add_complex(go.data() + row * n, partial.data() + row * n,
                           count * n);
      });
    }
    return go;
  }
  ComplexGrid go = set.at(0).adjoint_accum();
  combine_slot_partials(go, slots - 1, [&](std::size_t s) -> const ComplexGrid& {
    return set.at(s + 1).adjoint_accum();
  });
  return go;
}

}  // namespace bismo::sim

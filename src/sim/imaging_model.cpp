#include "sim/imaging_model.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "fft/fft.hpp"
#include "fft/kernels/kernel.hpp"
#include "parallel/reduction.hpp"

namespace bismo::sim {

namespace {

std::atomic<std::uint64_t> g_adjoint_passes{0};

/// Autocorrelation products per n^2 log2 n above which the image fill
/// takes the chain (image_fill_uses_autocorrelation).  Measured serially
/// on a 4-core x86-64 AVX2 host (BM_SourceImageFill and forced-path runs):
/// the paths cross at a ratio of about 2.4 (64^2 at 24 nm pixels: 1.26 vs
/// 1.12 ms) to 3.3 (128^2 at 16 nm, extrapolated from 3.8 vs 7.1 ms at a
/// ratio of 1.8).  At 8 nm pixels the ratio is 0.11 at 128^2 (11-13x
/// faster), 0.41 at 256^2 (4.4x) and 1.41 at 512^2 (140 vs 304 ms, 2.2x).
constexpr double kAutocorrelationPerTransform = 2.5;

/// Signed frequency of index `k` on an `n`-point axis: k below n - n/2,
/// k - n from there (the Nyquist index of an even n maps to -n/2).
std::int32_t signed_freq(std::uint32_t k, std::uint32_t n) {
  const auto sk = static_cast<std::int32_t>(k);
  return k < n - n / 2 ? sk : sk - static_cast<std::int32_t>(n);
}

/// Widest signed row or column extent of a band's bins.
std::int32_t signed_extent(const BandRef& band, std::uint32_t n) {
  if (band.nbins == 0) return 0;
  std::int32_t rlo = std::numeric_limits<std::int32_t>::max();
  std::int32_t clo = rlo;
  std::int32_t rhi = std::numeric_limits<std::int32_t>::min();
  std::int32_t chi = rhi;
  for (std::size_t i = 0; i < band.nbins; ++i) {
    const std::int32_t r = signed_freq(band.bins[i] / n, n);
    const std::int32_t c = signed_freq(band.bins[i] % n, n);
    rlo = std::min(rlo, r);
    rhi = std::max(rhi, r);
    clo = std::min(clo, c);
    chi = std::max(chi, c);
  }
  return std::max(rhi - rlo, chi - clo);
}

/// The dense offset window FftKernel::band_conv reads.  Bins are lifted
/// to signed frequencies (r, c) and get the offset r * side + c; offset
/// dr * side + dc holds D[dr mod n, dc mod n] (then D2 for two seeds) for
/// |dr|, |dc| <= m, the widest signed extent of any band of the pass.
/// Two bins of one band differ by at most m per axis, so their offset
/// difference addresses exactly D[bin_i - bin_j]: the window is exact for
/// any band because D is periodic (a band straddling the Nyquist row just
/// widens it, to at most (2n - 1)^2 offsets).
struct BandWindow {
  const std::complex<double>* center = nullptr;  ///< offset (0, 0)
  std::size_t seeds = 1;
  std::uint32_t n = 0;
  std::int32_t side = 1;  ///< 2m + 1

  std::int32_t offset(std::uint32_t bin) const {
    return signed_freq(bin / n, n) * side + signed_freq(bin % n, n);
  }
};

BandWindow build_band_window(const ComplexGrid& d, const ComplexGrid* d2,
                             std::int32_t m,
                             std::vector<std::complex<double>>& store) {
  const std::size_t n = d.rows();
  const std::size_t seeds = d2 != nullptr ? 2 : 1;
  const auto side = static_cast<std::size_t>(2 * m + 1);
  if (store.size() < side * side * seeds) store.resize(side * side * seeds);
  // bismo-lint: no-alloc-begin
  std::complex<double>* w = store.data();
  const auto wrap = [n](std::int32_t k) {
    return k < 0 ? static_cast<std::size_t>(k + static_cast<std::int32_t>(n))
                 : static_cast<std::size_t>(k);
  };
  for (std::int32_t dr = -m; dr <= m; ++dr) {
    const std::size_t row = wrap(dr) * n;
    for (std::int32_t dc = -m; dc <= m; ++dc) {
      const std::size_t at = row + wrap(dc);
      *w++ = d.data()[at];
      if (d2 != nullptr) *w++ = d2->data()[at];
    }
  }
  return {store.data() + (static_cast<std::size_t>(m) * side +
                          static_cast<std::size_t>(m)) * seeds,
          seeds, static_cast<std::uint32_t>(n),
          static_cast<std::int32_t>(side)};
  // bismo-lint: no-alloc-end
}

/// dspec = FFT2(seed), the arithmetic of fft2, into buffers that persist
/// across passes.
void transform_seed(const RealGrid& seed, const Fft2dPlan& plan,
                    ComplexGrid& dspec,
                    std::vector<std::complex<double>>& fft_scratch) {
  if (dspec.rows() != seed.rows() || dspec.cols() != seed.cols()) {
    dspec.resize(seed.rows(), seed.cols());
  }
  if (fft_scratch.size() < plan.scratch_size()) {
    fft_scratch.resize(plan.scratch_size());
  }
  // bismo-lint: no-alloc-begin
  for (std::size_t i = 0; i < seed.size(); ++i) {
    dspec[i] = std::complex<double>(seed[i], 0.0);
  }
  plan.forward(dspec, fft_scratch.data());
  // bismo-lint: no-alloc-end
}

/// One item of the band-restricted direct adjoint (see adjoint_pass).
/// With S = o .* vals over the band bins, the kernel's band_conv gives
/// U = (D (*) S)|_band (and U2 = (D2 (*) S)|_band with two seeds); this
/// adds conj(vals) .* (scale * U [+ scale2 * U2]) / N^2 into `accum`
/// (when non-null) and returns the wns pairing (1/N^2) Re <S, U>.
double band_conv_scatter(const BandRef& band, const ComplexGrid& o,
                         const BandWindow& window, const AdjointItem& item,
                         const fft::FftKernel& kernel, SimWorkspace& ws,
                         std::complex<double>* accum) {
  // bismo-lint: no-alloc-begin
  const std::size_t nb = band.nbins;
  if (nb == 0) return 0.0;
  const double nn =
      static_cast<double>(window.n) * static_cast<double>(window.n);
  const double inv_n2 = 1.0 / (nn * nn);
  const SimWorkspace::BandConvScratch scratch = ws.band_conv_scratch(nb);
  std::complex<double>* sval = scratch.vals;
  // Offsets relative to the band's first bin keep every offset inside the
  // window and leave their differences unchanged.
  const std::int32_t base = window.offset(band.bins[0]);
  for (std::size_t i = 0; i < nb; ++i) {
    const std::uint32_t bin = band.bins[i];
    scratch.offsets[i] = window.offset(bin) - base;
    sval[i] =
        band.vals != nullptr ? o.data()[bin] * band.vals[i] : o.data()[bin];
  }
  kernel.band_conv(sval, scratch.offsets, nb, window.center, window.seeds,
                   scratch.conv);
  const double go_fac = item.scale * inv_n2;
  const double go_fac2 = item.scale2 * inv_n2;
  double wacc = 0.0;
  for (std::size_t i = 0; i < nb; ++i) {
    const std::complex<double> u = scratch.conv[i * window.seeds];
    wacc += sval[i].real() * u.real() + sval[i].imag() * u.imag();
    if (accum != nullptr) {
      const std::complex<double> v = band.vals != nullptr
                                         ? std::conj(band.vals[i])
                                         : std::complex<double>{1.0, 0.0};
      if (window.seeds == 2) {
        const std::complex<double> u2 = scratch.conv[2 * i + 1];
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
  // Same shape gate as ImagingPipeline::build: Bluestein and tiny grids
  // take the staged path in both modes, identically.
  if (!Fft2dPlan(n, n).fused_cols()) return false;
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

bool image_fill_uses_autocorrelation(const ImagingModel& model) {
  if (!fusion_enabled()) return false;
  const std::size_t comps = model.components();
  if (comps == 0) return false;
  const double n = static_cast<double>(model.grid_dim());
  // Autocorrelation: about nbins^2 / 2 complex multiply-adds per point.
  // Chain + projection: a row-skipping forward chain and a disk-column
  // forward transform, both ~n^2 log2 n.
  const double budget = kAutocorrelationPerTransform * n * n * std::log2(n);
  for (std::size_t c = 0; c < comps; ++c) {
    const auto nb = static_cast<double>(model.component_band(c).nbins);
    if (0.5 * nb * nb > budget) return false;
  }
  return true;
}

void ImagingModel::field_into(const ComplexGrid& o, std::size_t c,
                              SimWorkspace& ws) const {
  ws.forward_field(o, component_band(c), nullptr, 0.0);
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
                       dest);
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
  WorkspaceSet& set = model.workspaces();
  WorkspaceSet::AdjointScratch& pass = set.adjoint_scratch();
  std::vector<std::uint8_t>& row_union = pass.row_union;
  if (sparse_combine) {
    row_union.assign(n, 0);
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
  // dense column transform.  D (and D2) are read through one dense
  // offset window built per pass (BandWindow), so the per-item kernel op
  // has no modulo gather.  The wns reduction is the matching Parseval
  // pairing  sum_i dldi[i] |field_c,i|^2 = (1/N^2) Re sum_k conj(S_c[k])
  // U_c[k].  No per-component transform and no coherent field at all (the
  // gradient engines skip arming the capture; see adjoint_uses_band_conv).
  const bool band_conv = adjoint_uses_band_conv(model);
  BandWindow window;
  if (band_conv) {
    const auto un = static_cast<std::uint32_t>(n);
    std::int32_t m = 0;
    for (const AdjointItem& it : items) {
      if (!it.mask && wns == nullptr) continue;
      m = std::max(m, signed_extent(model.component_band(it.component), un));
    }
    const Fft2dPlan plan(n, n);
    transform_seed(dldi, plan, pass.dspec, pass.fft_scratch);
    if (dldi2 != nullptr) {
      transform_seed(*dldi2, plan, pass.dspec2, pass.fft_scratch);
    }
    window = build_band_window(pass.dspec,
                               dldi2 != nullptr ? &pass.dspec2 : nullptr, m,
                               pass.window);
  }

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
      for (std::size_t k = range.begin; k < range.end; ++k) {
        const AdjointItem& item = items[k];
        if (!item.mask && wns == nullptr) continue;
        std::complex<double>* accum =
            item.mask ? ws.adjoint_accum().data() : nullptr;
        const double item_wns =
            band_conv_scatter(model.component_band(item.component), o,
                              window, item, kernel, ws, accum);
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
      // A field the intensity pass captured skips the forward transform.
      const ComplexGrid* field = set.captured_field(item.component);
      if (field == nullptr) {
        ws.forward_field(o, band, nullptr, 0.0);
        field = &ws.field();
      }
      if (wns != nullptr) {
        (*wns)[k] =
            kernel.weighted_norm_sum(dldi.data(), field->data(), field->size());
      }
      if (item.mask) {
        ws.adjoint_seed_accumulate(*field, seed, seed_scale, band,
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

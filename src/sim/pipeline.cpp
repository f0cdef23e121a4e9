#include "sim/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "fft/kernels/kernel.hpp"
#include "fft/kernels/plan.hpp"
#include "sim/workspace.hpp"

namespace bismo::sim {

namespace {

/// Process fusion mode: fused unless a test or bench selects the staged
/// reference with set_fusion_enabled(false).
std::atomic<bool> g_fused{true};

}  // namespace

bool fusion_enabled() { return g_fused.load(std::memory_order_acquire); }

void set_fusion_enabled(bool on) {
  g_fused.store(on, std::memory_order_release);
}

const char* fusion_mode_name() { return fusion_enabled() ? "fused" : "staged"; }

void ImagingPipeline::build(std::size_t dim) {
  dim_ = dim;
  plan_ = Fft2dPlan(dim, dim);
  built_mode_ = fusion_enabled();
  fused_ = built_mode_ && plan_.fused_cols() &&
           fft::active_kernel().pow2_cols_fused != nullptr;
}

bool ImagingPipeline::stale() const noexcept {
  return dim_ != 0 && built_mode_ != fusion_enabled();
}

// bismo-lint: no-alloc-begin
// The fused/staged evaluation paths run per outer-loop step on every
// lane; all buffers are caller-owned and pre-sized by SimWorkspace.
double ImagingPipeline::forward(const ComplexGrid& o, const BandRef& band,
                                ComplexGrid& spectrum, std::uint8_t* row_flags,
                                ComplexGrid& field, RealGrid* acc,
                                double acc_weight, const double* wns_weights,
                                std::complex<double>* scratch) const {
  if (fused_) {
    return forward_fused(o, band, spectrum, row_flags, field, acc, acc_weight,
                         wns_weights, scratch);
  }
  return forward_staged(o, band, field, acc, acc_weight, wns_weights, scratch);
}

double ImagingPipeline::forward_fused(const ComplexGrid& o, const BandRef& band,
                                      ComplexGrid& spectrum,
                                      std::uint8_t* row_flags,
                                      ComplexGrid& field, RealGrid* acc,
                                      double acc_weight,
                                      const double* wns_weights,
                                      std::complex<double>* scratch) const {
  const fft::FftKernel& kernel = fft::active_kernel();
  const std::size_t n = dim_;

  // Assemble the band-masked spectrum in the spectrum scratch grid.  Only
  // occupied rows are ever read downstream (the fused column pass consults
  // the row flags), so only those rows need zeroing before the bin runs
  // are written.
  if (band.nrows > 0) {
    std::memset(row_flags, 0, n);
    for_each_index_run(band.rows, band.nrows,
                 [&](std::size_t, std::uint32_t row, std::size_t count) {
                   std::fill_n(spectrum.data() + std::size_t{row} * n,
                               count * n, std::complex<double>{});
                 });
    for (std::size_t i = 0; i < band.nrows; ++i) row_flags[band.rows[i]] = 1;
  } else {
    std::memset(row_flags, 0, n);
  }
  if (band.vals != nullptr) {
    for_each_index_run(band.bins, band.nbins,
                 [&](std::size_t k, std::uint32_t start, std::size_t len) {
                   kernel.cmul(spectrum.data() + start, o.data() + start,
                               band.vals + k, len);
                 });
  } else {
    for_each_index_run(band.bins, band.nbins,
                 [&](std::size_t, std::uint32_t start, std::size_t len) {
                   std::copy(o.data() + start, o.data() + start + len,
                             spectrum.data() + start);
                 });
  }

  // Row pass over occupied-row runs, then one fused column pass: the
  // bit-reversal gather out of `spectrum`, the 1/N scale and the requested
  // |field|^2 epilogue all run inside the butterfly stages.
  for_each_index_run(band.rows, band.nrows,
               [&](std::size_t, std::uint32_t row, std::size_t count) {
                 plan_.transform_rows(spectrum.data() + std::size_t{row} * n,
                                      count, /*inverse=*/true, scratch);
               });
  fft_detail::ColsFusion fusion;
  fusion.src = spectrum.data();
  fusion.row_nonzero = row_flags;
  fusion.scale = 1.0 / static_cast<double>(field.size());
  double wns = 0.0;
  if (acc != nullptr) {
    fusion.norm_acc = acc->data();
    fusion.norm_weight = acc_weight;
  } else if (wns_weights != nullptr) {
    fusion.wns_weights = wns_weights;
    fusion.wns_out = &wns;
  }
  plan_.transform_cols_fused(fusion, field, /*inverse=*/true, scratch);
  // Both epilogues at once never happens on the hot paths; keep the rare
  // combination correct by running the second reduction staged.
  if (acc != nullptr && wns_weights != nullptr) {
    wns = kernel.weighted_norm_sum(wns_weights, field.data(), field.size());
  }
  return wns;
}

double ImagingPipeline::forward_staged(const ComplexGrid& o,
                                       const BandRef& band, ComplexGrid& field,
                                       RealGrid* acc, double acc_weight,
                                       const double* wns_weights,
                                       std::complex<double>* scratch) const {
  const fft::FftKernel& kernel = fft::active_kernel();
  const std::size_t n = dim_;

  // The legacy staged sequence, stage by stage: gather, row pass, column
  // pass, scale, then the separate epilogue ops.
  field.fill(std::complex<double>{});
  if (band.vals != nullptr) {
    for_each_index_run(band.bins, band.nbins,
                 [&](std::size_t k, std::uint32_t start, std::size_t len) {
                   kernel.cmul(field.data() + start, o.data() + start,
                               band.vals + k, len);
                 });
  } else {
    for_each_index_run(band.bins, band.nbins,
                 [&](std::size_t, std::uint32_t start, std::size_t len) {
                   std::copy(o.data() + start, o.data() + start + len,
                             field.data() + start);
                 });
  }
  for_each_index_run(band.rows, band.nrows,
               [&](std::size_t, std::uint32_t row, std::size_t count) {
                 plan_.transform_rows(field.data() + std::size_t{row} * n,
                                      count, /*inverse=*/true, scratch);
               });
  plan_.transform_cols(field, /*inverse=*/true, scratch);
  kernel.scale(field.data(), field.size(),
               1.0 / static_cast<double>(field.size()));
  if (acc != nullptr) {
    kernel.accumulate_norm(acc->data(), field.data(), field.size(), acc_weight);
  }
  double wns = 0.0;
  if (wns_weights != nullptr) {
    wns = kernel.weighted_norm_sum(wns_weights, field.data(), field.size());
  }
  return wns;
}

double ImagingPipeline::adjoint(const double* dldi, double scale,
                                const ComplexGrid& field, const BandRef& band,
                                ComplexGrid& cotangent, ComplexGrid& go,
                                std::complex<double>* scratch,
                                bool want_wns) const {
  const fft::FftKernel& kernel = fft::active_kernel();
  const std::size_t n = dim_;
  double wns = 0.0;

  // Column pass first (adjoint(IFFT2) = (1/N) FFT2 runs columns-then-rows
  // so the row pass can be band-restricted).  Fused: the cotangent seed
  // scale * dldi .* field is computed inside the first butterfly stage's
  // loads, so the seeded grid never materializes -- and the requested wns
  // reduction sum dldi * |field|^2 rides along on the same loads.  Staged:
  // seed, then transform in place, with a separate wns sweep.
  if (fused_) {
    fft_detail::ColsFusion fusion;
    fusion.src = field.data();
    fusion.seed = dldi;
    fusion.seed_scale = scale;
    if (want_wns) fusion.wns_out = &wns;
    plan_.transform_cols_fused(fusion, cotangent, /*inverse=*/false, scratch);
  } else {
    if (want_wns) {
      wns = kernel.weighted_norm_sum(dldi, field.data(), field.size());
    }
    kernel.seed_cotangent(cotangent.data(), dldi, field.data(), field.size(),
                          scale);
    plan_.transform_cols(cotangent, /*inverse=*/false, scratch);
  }

  // Shared tail: band-restricted row pass, then the scatter-accumulate
  // into the frequency-domain gradient over contiguous bin runs.
  for_each_index_run(band.rows, band.nrows,
               [&](std::size_t, std::uint32_t row, std::size_t count) {
                 plan_.transform_rows(cotangent.data() + std::size_t{row} * n,
                                      count, /*inverse=*/false, scratch);
               });
  const double inv_n = 1.0 / static_cast<double>(cotangent.size());
  if (band.vals != nullptr) {
    for_each_index_run(band.bins, band.nbins,
                 [&](std::size_t k, std::uint32_t start, std::size_t len) {
                   kernel.cmul_conj_axpy(go.data() + start,
                                         cotangent.data() + start,
                                         band.vals + k, len, inv_n);
                 });
  } else {
    for_each_index_run(band.bins, band.nbins,
                 [&](std::size_t, std::uint32_t start, std::size_t len) {
                   kernel.caxpy(go.data() + start, cotangent.data() + start,
                                len, inv_n);
                 });
  }
  return wns;
}
// bismo-lint: no-alloc-end

}  // namespace bismo::sim

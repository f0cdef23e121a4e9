#include "sim/pipeline.hpp"

#include <algorithm>
#include <cstring>

#include "fft/kernels/kernel.hpp"
#include "fft/kernels/plan.hpp"
#include "sim/workspace.hpp"

namespace bismo::sim {

const char* fusion_mode_name() { return "fused"; }

void ImagingPipeline::build(std::size_t dim) {
  dim_ = dim;
  plan_ = Fft2dPlan(dim, dim);
}

// bismo-lint: no-alloc-begin
// The evaluation chains run per outer-loop step on every lane; all
// buffers are caller-owned and pre-sized by SimWorkspace.
void ImagingPipeline::forward(const ComplexGrid& o, const BandRef& band,
                              ComplexGrid& spectrum, std::uint8_t* row_flags,
                              ComplexGrid& field, RealGrid* acc,
                              double acc_weight,
                              std::complex<double>* scratch) const {
  const fft::FftKernel& kernel = fft::active_kernel();
  const std::size_t n = dim_;

  // Assemble the band-masked spectrum in the spectrum scratch grid.  Only
  // occupied rows are ever read afterwards (the fused column pass consults
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
  // bit-reversal gather out of `spectrum`, the 1/N scale and the optional
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
  if (acc != nullptr) {
    fusion.norm_acc = acc->data();
    fusion.norm_weight = acc_weight;
  }
  plan_.transform_cols_fused(fusion, field, /*inverse=*/true);
}

void ImagingPipeline::adjoint(const double* dldi, double scale,
                              const ComplexGrid& field, const BandRef& band,
                              ComplexGrid& cotangent, ComplexGrid& go,
                              std::complex<double>* scratch) const {
  const fft::FftKernel& kernel = fft::active_kernel();
  const std::size_t n = dim_;

  // Column pass first (adjoint(IFFT2) = (1/N) FFT2 runs columns-then-rows
  // so the row pass can be band-restricted).  The cotangent seed
  // scale * dldi .* field is computed inside the first butterfly stage's
  // loads, so the seeded grid never materializes.
  fft_detail::ColsFusion fusion;
  fusion.src = field.data();
  fusion.seed = dldi;
  fusion.seed_scale = scale;
  plan_.transform_cols_fused(fusion, cotangent, /*inverse=*/false);

  // Band-restricted row pass, then the scatter-accumulate into the
  // frequency-domain gradient over contiguous bin runs.
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
}
// bismo-lint: no-alloc-end

}  // namespace bismo::sim

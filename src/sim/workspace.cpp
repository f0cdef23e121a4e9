#include "sim/workspace.hpp"

#include <algorithm>

#include "fft/kernels/kernel.hpp"

namespace bismo::sim {

void SimWorkspace::ensure(std::size_t dim) {
  if (dim_ == dim && !pipeline_.stale()) return;
  pipeline_.build(dim);
  if (dim_ != dim) {
    dim_ = dim;
    field_.resize(dim, dim);
    cotangent_.resize(dim, dim);
    spectrum_.resize(dim, dim);
    adjoint_accum_.resize(dim, dim);
    intensity_accum_.resize(dim, dim);
    row_flags_.assign(dim, 0);
    fft_scratch_.assign(pipeline_.plan().scratch_size(),
                        std::complex<double>{});
  }
}

RealGrid& SimWorkspace::seed_scratch() {
  if (seed_scratch_.rows() != dim_ || seed_scratch_.cols() != dim_) {
    seed_scratch_.resize(dim_, dim_);
  }
  return seed_scratch_;
}

SimWorkspace::BandConvScratch SimWorkspace::band_conv_scratch(
    std::size_t nbins) {
  if (band_vals_.size() < nbins) {
    band_vals_.resize(nbins);
    band_offsets_.resize(nbins);
    band_conv_.resize(2 * nbins);
  }
  return {band_vals_.data(), band_offsets_.data(), band_conv_.data()};
}

// bismo-lint: no-alloc-begin
// Steady-state evaluation path: after ensure() has sized the buffers,
// every call below must run without touching the heap (the AllocGuard
// tests assert this dynamically).
void SimWorkspace::forward_field(const ComplexGrid& o, const BandRef& band,
                                 RealGrid* acc, double acc_weight,
                                 ComplexGrid* field_out) {
  ComplexGrid* dest = field_out != nullptr ? field_out : &field_;
  // bismo-lint: allow(no-alloc) first-use growth of a caller-provided capture grid
  if (dest->rows() != dim_ || dest->cols() != dim_) dest->resize(dim_, dim_);
  pipeline_.forward(o, band, spectrum_, row_flags_.data(), *dest, acc,
                    acc_weight, fft_scratch_.data());
}

void SimWorkspace::adjoint_seed_accumulate(const ComplexGrid& field,
                                           const double* dldi, double scale,
                                           const BandRef& band,
                                           ComplexGrid& go) {
  pipeline_.adjoint(dldi, scale, field, band, cotangent_, go,
                    fft_scratch_.data());
}

void SimWorkspace::sparse_inverse_field(const ComplexGrid& o,
                                        const std::uint32_t* bins,
                                        const std::complex<double>* vals,
                                        std::size_t nbins,
                                        const std::uint32_t* band_rows,
                                        std::size_t nrows) {
  const fft::FftKernel& kernel = fft::active_kernel();
  const std::size_t n = dim_;

  // Assemble the band-masked spectrum directly in the field buffer: zero
  // everything, then write each contiguous bin run as one vectorized
  // product (pass-band rows are contiguous intervals, so runs are long).
  field_.fill(std::complex<double>{});
  if (vals != nullptr) {
    for_each_index_run(bins, nbins,
                 [&](std::size_t k, std::uint32_t start, std::size_t len) {
                   kernel.cmul(field_.data() + start, o.data() + start,
                               vals + k, len);
                 });
  } else {
    for_each_index_run(bins, nbins,
                 [&](std::size_t, std::uint32_t start, std::size_t len) {
                   std::copy(o.data() + start, o.data() + start + len,
                             field_.data() + start);
                 });
  }

  // Row pass: every run of adjacent occupied rows is one batched kernel
  // call; all other rows are exactly zero and are skipped.
  std::complex<double>* scratch = fft_scratch_.data();
  for_each_index_run(band_rows, nrows,
               [&](std::size_t, std::uint32_t row, std::size_t count) {
                 pipeline_.plan().transform_rows(field_.data() + std::size_t{row} * n,
                                      count, /*inverse=*/true, scratch);
               });
  pipeline_.plan().transform_cols(field_, /*inverse=*/true);
  kernel.scale(field_.data(), field_.size(),
               1.0 / static_cast<double>(field_.size()));
}

// bismo-lint: no-alloc-end

std::vector<std::uint32_t> occupied_rows(const std::vector<std::uint32_t>& bins,
                                         std::size_t cols) {
  // Bin lists are sorted row-major (a precondition of the sparse
  // transforms), so suppressing adjacent repeats yields sorted unique rows.
  std::vector<std::uint32_t> rows;
  for (std::uint32_t bin : bins) {
    const std::uint32_t r = bin / static_cast<std::uint32_t>(cols);
    if (rows.empty() || rows.back() != r) rows.push_back(r);
  }
  return rows;
}

}  // namespace bismo::sim

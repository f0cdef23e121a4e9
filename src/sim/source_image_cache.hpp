// Per-source-point image cache: the offline/online split of the Abbe sum,
// stored as spectra on the doubled-pupil disk.
//
// The Abbe image is linear in the source weights,
//
//   I = (1/W) sum_c j_c P_c,   P_c = |A_c|^2,
//
// and every coherent field A_c depends on the mask alone.  With the mask
// parameters held fixed -- the whole lower level of BiSMO and every
// hypergradient operator -- the images P_c are constants, so a
// `SourceImageCache` computes them once (the *fill*) and then serves each
// evaluation from them.
//
// Representation.  A_c is band-limited to its shifted pupil disk, so its
// image is band-limited to the difference set of that disk: the
// doubled-pupil disk |q| <= 2 NA / lambda, the same for every point.  The
// cache stores P^_c = FFT2(P_c) on the Hermitian half of that disk only
// (P_c is real, so P^_c(-q) = conj P^_c(q)).  Offsets are taken mod n:
// when the disk reaches +-Nyquist (the OpticsConfig::validate boundary
// pixel_nm = lambda / (4 NA)), aliased offsets fold into one bin exactly
// as the DFT folds them.  At 128^2 with an 11^2 source this is 81 x 321
// complex values (0.42 MB) in place of 81 dense 128^2 images (10.6 MB);
// at 256^2 / 9^2, about 1 MB in place of 25.7 MB.  Serving needs one
// dim x (disk columns) complex slab of scratch on top (60 KB at 128^2).
//
// Fill.  Two paths, chosen by sim::image_fill_uses_autocorrelation (the
// cost rule and its measured crossover live there):
//   * autocorrelation (narrow bands): with F_c = o .* pupil over the
//     point's BandRef bins,
//       P^_c(q) = (1/n^2) sum_k F_c(k + q) conj F_c(k),
//     about nbins^2 / 2 complex products per point, one
//     FftKernel::xcorr_accumulate per pair of band row segments, with no
//     transform at all;
//   * chain + projection (wide bands): the point's forward chain (which
//     still writes the field into an armed FieldCaptureScope), then one
//     forward transform of |A_c|^2 restricted to the disk columns.
// Tests check both against |field|^2 of the per-point reference
// (tests/imaging_reference.hpp), and each against the other.
// Both run one point per task over the reduction slots with no cross-point
// partials, so the spectra are bitwise identical for any thread count.
//
// Serving, serial (a pool dispatch costs more than these passes):
//   * intensity: a disk-sized weighted sum of spectra, then one normalized
//     inverse transform -- columns on the disk-column slab, then rows, two
//     real rows per complex transform;
//   * dots(w): one forward transform of w (rows two at a time, disk
//     columns only), then one disk-sized pairing per point (Parseval).
// Both are allocation-free once warmed and match the transform path to
// rounding (<= 1e-12 of the grid maximum), not bitwise.  The gradient
// engine images every call through the cache (grad/abbe_grad.hpp), so all
// its results carry these roundings alike.
//
// The cache is keyed by the exact bits of the caller's mask parameters
// plus the FFT backend that produced the spectra.  The
// disk layout is derived from the model's bands at the first fill for a
// model and rebuilt when the model changes.  It is not thread-safe: like
// the workspaces it uses, one evaluation at a time.
#ifndef BISMO_SIM_SOURCE_IMAGE_CACHE_HPP
#define BISMO_SIM_SOURCE_IMAGE_CACHE_HPP

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fft/fft.hpp"
#include "fft/kernels/kernel.hpp"
#include "math/grid2d.hpp"
#include "sim/imaging_model.hpp"

namespace bismo::sim {

/// Which fill computes the spectra: the cost rule
/// (sim::image_fill_uses_autocorrelation), or one path forced -- tests and
/// benches compare the two.
enum class ImageFill { kAuto, kAutocorrelation, kChain };

class SourceImageCache {
 public:
  /// True when the spectra were filled for exactly these key bits under
  /// the active FFT backend.
  bool holds(const RealGrid& key) const;

  /// Store P^_c = FFT2(|field(o, c)|^2) on the half disk for every
  /// component of `model`, keyed by `key`.  The chain path writes each
  /// field into its capture entry when the workspace set's field capture
  /// is armed; the autocorrelation path computes no field.
  void fill(const ImagingModel& model, const ComplexGrid& o,
            const RealGrid& key, ImageFill path = ImageFill::kAuto);

  /// sum_k weights[k] * |A_comps[k]|^2, served from the spectra; within
  /// rounding of `accumulate_intensity(model, o, comps, weights)` for the
  /// filled `o`.
  RealGrid intensity(const ImagingModel& model,
                     const std::vector<std::uint32_t>& comps,
                     const std::vector<double>& weights) const;

  /// The same sum written into `out` (resized to dim x dim when its shape
  /// differs), so a warmed call allocates nothing.
  void intensity(const ImagingModel& model,
                 const std::vector<std::uint32_t>& comps,
                 const std::vector<double>& weights, RealGrid& out) const;

  /// out[c] = sum_i w[i] * |A_c,i|^2 for every component (`out` is
  /// resized to the component count).
  void dots(const ImagingModel& model, const double* w,
            std::vector<double>& out) const;

  /// Bytes held by the stored spectra (components x half-disk bins x 16;
  /// per-call scratch not included).
  std::size_t bytes() const noexcept {
    return spectra_.size() * sizeof(double);
  }

 private:
  /// One maximal run of consecutive columns of a band in one row, in
  /// lifted (unwrapped) coordinates; `start` is the position of its first
  /// value in the band's zero-padded value buffer.
  struct Segment {
    std::int32_t row;
    std::int32_t col;
    std::uint32_t len;
    std::uint32_t start;
  };
  /// One term of a half-disk bin: the correlation value at `at` in the
  /// accumulation rectangle, conjugated when `conj`.
  struct Gather {
    std::uint32_t bin;
    std::uint32_t at;
    bool conj;
  };
  /// Per-slot scratch of the fill and the serving row passes.
  struct SlotScratch {
    std::vector<std::complex<double>> rect;  ///< correlation rectangle
    std::vector<std::complex<double>> vals;  ///< padded band values
    std::vector<std::complex<double>> rows;  ///< kRowBlock / 2 grid rows
    std::vector<std::complex<double>> slab;  ///< dim x disk columns
    std::vector<std::complex<double>> fft;
  };
  /// Grid rows one serving task transforms together.
  static constexpr std::size_t kRowBlock = 8;

  void build_layout(const ImagingModel& model);
  void fill_autocorrelation(const ImagingModel& model, const ComplexGrid& o,
                            std::size_t c, SlotScratch& scratch);
  void fill_chain(const ImagingModel& model, const ComplexGrid& o,
                  std::size_t c, SimWorkspace& ws, SlotScratch& scratch);
  /// scratch.slab = FFT2(w) on the disk columns, for a real dim x dim `w`.
  void project(const double* w, SlotScratch& scratch) const;
  /// `body(rows buffer, fft scratch, first row, rows)` for every block of
  /// kRowBlock grid rows, in order.
  template <typename Body>
  void for_row_blocks(SlotScratch& scratch, const Body& body) const;
  /// In-place column transforms of scratch.slab.
  void slab_columns(SlotScratch& scratch, bool inverse) const;

  // Disk layout, derived from the model's bands (build_layout).
  const ImagingModel* model_ = nullptr;
  const std::uint32_t* model_bins_ = nullptr;
  std::size_t dim_ = 0;
  std::size_t comps_ = 0;
  std::vector<Segment> segments_;
  std::vector<std::uint32_t> band_segments_;  ///< comps + 1 offsets
  std::vector<std::uint32_t> value_order_;    ///< band bin per value slot
  std::vector<std::uint32_t> band_values_;    ///< comps + 1 offsets
  std::size_t padded_values_ = 0;  ///< widest padded value buffer
  std::size_t rect_rows_ = 0;   ///< row offsets 0 .. rect_rows_ - 1
  std::int32_t rect_half_ = 0;  ///< column offsets -rect_half_ .. rect_half_
  std::vector<Gather> gather_;  ///< sorted by bin
  std::vector<std::uint32_t> half_;     ///< flat grid bin of each half bin
  std::vector<double> pair_weight_;     ///< 1 when self-conjugate, else 2
  std::vector<std::uint32_t> disk_rows_;  ///< sorted grid rows of the disk
  std::vector<std::uint32_t> disk_cols_;  ///< sorted grid cols of the disk
  std::vector<std::uint32_t> slab_at_;      ///< slab index of each half bin
  std::vector<std::uint32_t> slab_mirror_;  ///< slab index of its mirror
  Fft2dPlan plan_;
  Fft1dPlan col_plan_;

  // Spectra: comps x half bins, interleaved (re, im).
  std::vector<double> spectra_;
  mutable std::vector<SlotScratch> slot_scratch_;
  RealGrid key_;
  const fft::FftKernel* kernel_ = nullptr;
  bool valid_ = false;

  // Serving scratch (const methods; one evaluation at a time): the half
  // disk here, the slab and row buffer in slot 0's scratch.
  mutable std::vector<double> half_acc_;
};

}  // namespace bismo::sim

#endif  // BISMO_SIM_SOURCE_IMAGE_CACHE_HPP

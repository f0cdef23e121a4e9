// Abbe forward imaging engine (paper Eq. 2):
//
//   I(x, y) = (1/W) * sum_sigma j_sigma |A_sigma(x, y)|^2,
//   A_sigma = IFFT[ H(f + f_sigma, g + g_sigma) * O(f, g) ],  W = sum j_sigma
//
// where O = FFT(mask) and each source point's shifted pupil pass-band is
// precomputed as a sparse bin list (exact; see Pupil::shifted_passband).
// The normalization by total source power W pins the clear-field intensity
// to 1.0 so a fixed resist threshold is meaningful while the source is being
// optimized (documented substitution; Eq. 2 as printed is unnormalized).
//
// Source-point contributions are independent, so the engine evaluates them
// on a thread pool -- the CPU analogue of the paper's GPU acceleration whose
// runtime model is ceil(sigma/P) (Sec. 3.1).  The engine implements the
// unified `sim::ImagingModel` interface: every pooled pass runs through
// per-slot `sim::SimWorkspace` scratch (preplanned FFTs, preallocated
// buffers, pass-band row skipping), so steady-state evaluation performs no
// heap allocations and no plan-cache lock acquisitions.
#ifndef BISMO_LITHO_ABBE_HPP
#define BISMO_LITHO_ABBE_HPP

#include <cstddef>
#include <memory>
#include <vector>

#include "litho/optics.hpp"
#include "litho/pupil.hpp"
#include "litho/source.hpp"
#include "math/grid2d.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/imaging_model.hpp"
#include "sim/source_image_cache.hpp"

namespace bismo {

/// Aerial image plus the bookkeeping the gradients need.
struct AbbeAerial {
  RealGrid intensity;        ///< normalized intensity I (clear field = 1)
  double total_weight = 0.0; ///< W = sum of source weights over valid points
};

/// Abbe source-points-integration imaging engine.
///
/// Construction precomputes one sparse shifted pass-band (plus its occupied-
/// row list) per valid source point; `aerial` and the gradient engine then
/// reuse them for every forward/backward evaluation.  The engine's model
/// state is immutable after construction; the shared workspace set is the
/// only mutable state and follows the thread pool's one-dispatch-at-a-time
/// contract.
class AbbeImaging : public sim::ImagingModel {
 public:
  /// Build for the given optics and source geometry.  `pool` may be null
  /// (serial execution); the pool is borrowed, not owned.  `workspaces` may
  /// be shared with other engines evaluating the same problem (null = a
  /// fresh set owned by this engine).
  AbbeImaging(const OpticsConfig& optics, const SourceGeometry& geometry,
              ThreadPool* pool = nullptr,
              std::shared_ptr<sim::WorkspaceSet> workspaces = nullptr);

  /// Forward imaging: aerial intensity for mask spectrum `o` (= fft2 of the
  /// activated, dose-scaled mask) and source magnitudes `j` (Nj x Nj grid).
  /// Points with weight <= `cutoff` are skipped (they contribute nothing to
  /// the sum); pass cutoff < 0 to force evaluation of every valid point.
  AbbeAerial aerial(const ComplexGrid& o, const RealGrid& j,
                    double cutoff = 1e-9) const;

  /// The same image served from a per-point image cache filled for this
  /// engine (one inverse transform of the cached spectra): within rounding
  /// (<= 1e-12 of its maximum) of `aerial(o, j, cutoff)` for the spectrum
  /// `images` was filled from.
  AbbeAerial aerial(const sim::SourceImageCache& images, const RealGrid& j,
                    double cutoff = 1e-9) const;

  /// Coherent field A_sigma for one source point (by index into
  /// `geometry().points()`), i.e. IFFT of the pass-band-masked spectrum.
  /// Allocating reference path; hot loops use `field_into`.
  ComplexGrid field(const ComplexGrid& o, std::size_t point_index) const;

  /// Out-param variant: writes the field into `out` (resized on first
  /// use, reused afterwards), so the per-call grid allocation is gone.
  /// The transform itself still runs through the convenience `ifft2`
  /// (one internal scratch allocation per call); hot loops use
  /// `field_into`, which is fully allocation-free via the workspace.
  void field(const ComplexGrid& o, std::size_t point_index,
             ComplexGrid& out) const;

  /// Sparse pass-band of one source point.
  const PassBand& passband(std::size_t point_index) const {
    return passbands_[point_index];
  }

  const SourceGeometry& geometry() const noexcept { return geometry_; }
  const OpticsConfig& optics() const noexcept { return optics_; }
  const Pupil& pupil() const noexcept { return pupil_; }

  // ---- sim::ImagingModel ----
  std::size_t grid_dim() const noexcept override { return optics_.mask_dim; }
  std::size_t components() const noexcept override {
    return passbands_.size();
  }
  sim::BandRef component_band(std::size_t c) const override;
  ThreadPool* pool() const noexcept override { return pool_; }
  sim::WorkspaceSet& workspaces() const override { return *workspaces_; }

 private:
  /// Fill the workspace set's component/weight scratch with the points
  /// whose weight exceeds `cutoff` (index order); returns W = sum j.
  double collect_active(const RealGrid& j, double cutoff) const;

  OpticsConfig optics_;
  SourceGeometry geometry_;
  Pupil pupil_;
  std::vector<PassBand> passbands_;  ///< parallel to geometry_.points()
  /// Sorted occupied grid rows per pass-band (the row-skip lists).
  std::vector<std::vector<std::uint32_t>> band_rows_;
  ThreadPool* pool_;
  std::shared_ptr<sim::WorkspaceSet> workspaces_;
};

}  // namespace bismo

#endif  // BISMO_LITHO_ABBE_HPP

// Per-thread simulation workspaces: the allocation-free substrate of the
// unified imaging-engine layer (sim/imaging_model.hpp).
//
// Every per-component operation of the imaging engines (one source point of
// the Abbe sum, one SOCS kernel of the Hopkins sum) needs the same scratch
// state: a masked-spectrum grid, a coherent-field grid, a cotangent grid for
// the reverse pass, reduction accumulators, and FFT plans + scratch.  A
// `SimWorkspace` owns exactly that state, acquired once; a `WorkspaceSet`
// holds one workspace per deterministic-reduction slot (parallel/
// reduction.hpp) so the pooled loops of the engines perform zero heap
// allocations and zero plan-cache lock acquisitions in steady state.
//
// The two sparse-spectrum transforms implemented here exploit the band
// limit of the pupil: a pass-band touches only a few grid rows, and a 2-D
// (I)FFT is separable, so
//   * the forward field transform runs rows-then-columns and skips the row
//     pass for rows with no pass-band bin (their transform is exactly zero);
//   * the adjoint transform runs columns-then-rows and skips the row pass
//     for rows whose output bins are never read.
// Both skips are exact (transforms of/into all-zero rows), so results are
// bitwise identical for any thread count and independent of the skip.
//
// The skip-row logic feeds the *batched* kernel layer: sorted pass-band
// bins and occupied rows decompose into contiguous runs, so the band
// product and adjoint accumulation run as unit-stride vectorized kernel
// ops and every run of adjacent occupied rows becomes one batched
// `Fft2dPlan::transform_rows` call.
#ifndef BISMO_SIM_WORKSPACE_HPP
#define BISMO_SIM_WORKSPACE_HPP

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fft/fft.hpp"
#include "math/grid2d.hpp"
#include "parallel/reduction.hpp"
#include "sim/pipeline.hpp"

namespace bismo::sim {

/// Invoke `fn(list_pos, start_value, length)` for every maximal run of
/// consecutive values in a sorted index list.  Pass-band bin lists and
/// occupied-row lists are sorted, so their runs are exactly the
/// unit-stride segments the vectorized kernels and batched row transforms
/// consume.
template <typename Fn>
inline void for_each_index_run(const std::uint32_t* idx, std::size_t n,
                               const Fn& fn) {
  std::size_t k = 0;
  while (k < n) {
    std::size_t j = k + 1;
    while (j < n && idx[j] == idx[j - 1] + 1) ++j;
    fn(k, idx[k], j - k);
    k = j;
  }
}

/// Scratch state for one worker slot of an imaging-engine loop.
///
/// Buffers are sized lazily by `ensure`; once sized for a grid dimension,
/// no method allocates.  A workspace is exclusive to one task at a time
/// (the engines index workspaces by reduction slot, and the thread pool
/// runs each slot on exactly one worker).
class SimWorkspace {
 public:
  SimWorkspace() = default;

  /// Size every buffer and build the imaging pipeline (FFT plan + fused
  /// kernel chain selection) for `dim` x `dim` grids.  No-op when already
  /// sized and the pipeline matches the process fusion mode; this is the
  /// only method that allocates.
  void ensure(std::size_t dim);

  std::size_t dim() const noexcept { return dim_; }
  const Fft2dPlan& plan() const noexcept { return pipeline_.plan(); }

  /// The plan-time-specialized kernel chains this workspace runs.
  const ImagingPipeline& pipeline() const noexcept { return pipeline_; }

  /// Coherent-field output of `sparse_inverse_field` (dense, dim x dim).
  ComplexGrid& field() noexcept { return field_; }

  /// Dense cotangent input of `adjoint_band_accumulate` (dim x dim);
  /// the caller fills it, the call consumes it (contents are destroyed).
  ComplexGrid& cotangent() noexcept { return cotangent_; }

  /// Per-slot frequency-domain gradient accumulator (g_O partial).
  ComplexGrid& adjoint_accum() noexcept { return adjoint_accum_; }

  /// Per-slot intensity accumulator.
  RealGrid& intensity_accum() noexcept { return intensity_accum_; }

  /// Per-slot real grid for a per-item combined cotangent seed (the
  /// two-seed field paths of sim::adjoint_pass).  Sized on first use, so
  /// workspaces that never run those paths do not hold it.
  RealGrid& seed_scratch();

  /// FFT scratch sized for `plan()`.
  std::complex<double>* fft_scratch() noexcept { return fft_scratch_.data(); }

  /// Per-bin scratch of the band-convolution adjoint (sim::adjoint_pass):
  /// band products and the bins' grid rows and columns.
  struct BandConvScratch {
    std::complex<double>* vals;
    std::uint32_t* rows;
    std::uint32_t* cols;
  };

  /// Scratch for a band of `nbins` bins.  Grows on first use for a wider
  /// band and never shrinks, so a warmed workspace does not allocate.
  BandConvScratch band_conv_scratch(std::size_t nbins);

  /// Forward imaging chain through the pipeline: field() = normalized
  /// IFFT2 of `o` restricted to `band`, with the optional epilogues fused
  /// into the column pass -- `acc != nullptr` accumulates
  /// acc += acc_weight * |field|^2, `wns_weights != nullptr` returns
  /// sum_i wns_weights[i] * |field_i|^2 (0.0 otherwise).  Runs the fused
  /// or staged chain per the pipeline built at `ensure` time.  When
  /// `field_out` is non-null the field is written there instead of the
  /// slot-local field() buffer (resized on first use) -- the hook the
  /// WorkspaceSet field cache captures through.
  double forward_field(const ComplexGrid& o, const BandRef& band,
                       RealGrid* acc, double acc_weight,
                       const double* wns_weights,
                       ComplexGrid* field_out = nullptr);

  /// Adjoint imaging chain through the pipeline:
  ///   go[band.bins] += conj(band) .* FFT2(scale * dldi .* field) / N.
  /// `field` is the coherent field the chain seeds from (typically
  /// field() or a cached capture; must not alias cotangent()).  The fused
  /// chain computes the cotangent seed on the fly inside the column pass;
  /// the staged chain seeds cotangent() then transforms.  When `want_wns`
  /// is set, returns sum_i dldi[i] * |field_i|^2 computed on the same
  /// seeded loads (0.0 otherwise).  Destroys cotangent().
  double adjoint_seed_accumulate(const ComplexGrid& field, const double* dldi,
                                 double scale, const BandRef& band,
                                 ComplexGrid& go, bool want_wns = false);

  /// field() = normalized IFFT2 of `o` restricted to a sparse band:
  /// spectrum bin `bins[k]` contributes `o[bins[k]] * vals[k]` (`vals`
  /// null means unit pupil values).  `band_rows` lists the sorted distinct
  /// grid rows covered by `bins` (see `occupied_rows`); rows outside it are
  /// exactly zero and their row transform is skipped.  Always runs the
  /// staged per-stage sequence -- the reference the fused chains are
  /// verified against.
  void sparse_inverse_field(const ComplexGrid& o, const std::uint32_t* bins,
                            const std::complex<double>* vals,
                            std::size_t nbins, const std::uint32_t* band_rows,
                            std::size_t nrows);

  /// Adjoint of `sparse_inverse_field` as a linear operator, fused with the
  /// band-restricted accumulation:
  ///   go[bins[k]] += conj(vals[k]) * ifft2_adjoint(cotangent())[bins[k]].
  /// Runs columns-then-rows and only transforms rows in `band_rows`, since
  /// no other output bin is read.  Destroys `cotangent()`.
  void adjoint_band_accumulate(const std::uint32_t* bins,
                               const std::complex<double>* vals,
                               std::size_t nbins,
                               const std::uint32_t* band_rows,
                               std::size_t nrows, ComplexGrid& go);

 private:
  std::size_t dim_ = 0;
  ImagingPipeline pipeline_;
  ComplexGrid field_;
  ComplexGrid cotangent_;
  ComplexGrid spectrum_;  ///< fused-chain gather buffer (band product)
  ComplexGrid adjoint_accum_;
  RealGrid intensity_accum_;
  RealGrid seed_scratch_;
  std::vector<std::uint8_t> row_flags_;  ///< fused-chain row-sparsity flags
  std::vector<std::complex<double>> fft_scratch_;
  std::vector<std::complex<double>> band_vals_;
  std::vector<std::uint32_t> band_row_idx_;
  std::vector<std::uint32_t> band_col_idx_;
};

/// One workspace per deterministic-reduction slot, shared by every engine
/// that evaluates a given problem, plus the per-evaluation scratch lists
/// the engines' top-level passes reuse across calls.  The set itself is
/// stateless glue; the engines guarantee one task per slot and one
/// top-level evaluation at a time (the thread pool's one-dispatch-at-a-time
/// contract), so no locking is needed.
class WorkspaceSet {
 public:
  WorkspaceSet() : slots_(kReductionSlots) {}

  /// Workspace of a reduction slot (`slot < kReductionSlots`).
  SimWorkspace& at(std::size_t slot) { return slots_[slot]; }

  std::size_t size() const noexcept { return slots_.size(); }

  /// Reusable active-component index list for `aerial`-style passes
  /// (capacity persists across evaluations, so steady state is
  /// allocation-free).  Contents are owned by the running evaluation.
  std::vector<std::uint32_t>& component_scratch() noexcept {
    return component_scratch_;
  }

  /// Reusable component-weight list running in lockstep with
  /// `component_scratch`.
  std::vector<double>& weight_scratch() noexcept { return weight_scratch_; }

  // ---- Per-evaluation field cache (fused-pipeline fast path) ----------
  //
  // A gradient evaluation runs the forward chain twice per component:
  // once in the intensity pass and once in the backward sweep, which
  // needs the coherent field again to seed the adjoint.  When armed, the
  // intensity pass writes each component's field into `capture_slot(c)`
  // (zero extra copies -- the pipeline's destination is redirected) and
  // `adjoint_pass` consumes it via `captured_field(c)`, eliminating the
  // per-item forward recomputation.  Entries are only meaningful for the
  // spectrum the capturing pass ran on, so both passes must run on one
  // spectrum inside one scope -- the gradient engines arm it with
  // FieldCaptureScope around their evaluate().  Cache grids persist
  // across evaluations (warm after the first capture).

  /// Arm the cache for one evaluation over `components` components.
  void begin_field_capture(std::size_t components) {
    capturing_ = true;
    field_valid_.assign(components, 0);
    if (field_cache_.size() < components) field_cache_.resize(components);
  }

  /// Disarm; existing entries become unreadable until the next capture.
  void end_field_capture() noexcept { capturing_ = false; }

  bool capturing() const noexcept { return capturing_; }

  /// Cache grid to fill for component `c` (marks the entry valid; the
  /// caller writes the field through the pipeline).  Requires an armed
  /// capture with `c` in range; slots touch disjoint components, so the
  /// pooled passes need no locking here.
  ComplexGrid& capture_slot(std::size_t c) {
    field_valid_[c] = 1;
    return field_cache_[c];
  }

  /// Captured field of component `c`, or null when not captured this
  /// evaluation (callers fall back to recomputing the forward chain).
  const ComplexGrid* captured_field(std::size_t c) const {
    return capturing_ && c < field_valid_.size() && field_valid_[c] != 0
               ? &field_cache_[c]
               : nullptr;
  }

 private:
  std::vector<SimWorkspace> slots_;
  std::vector<std::uint32_t> component_scratch_;
  std::vector<double> weight_scratch_;
  std::vector<ComplexGrid> field_cache_;
  std::vector<std::uint8_t> field_valid_;
  bool capturing_ = false;
};

/// RAII arm/disarm of a WorkspaceSet's field cache for one evaluation.
/// Arms only when the fused pipeline mode is active (`enable` lets a
/// caller skip capture entirely, e.g. loss-only evaluations): the staged
/// mode keeps the legacy recompute sweep it is benchmarked against.
class FieldCaptureScope {
 public:
  FieldCaptureScope(WorkspaceSet& set, std::size_t components,
                    bool enable = true)
      : set_(enable && fusion_enabled() ? &set : nullptr) {
    if (set_ != nullptr) set_->begin_field_capture(components);
  }
  ~FieldCaptureScope() {
    if (set_ != nullptr) set_->end_field_capture();
  }
  FieldCaptureScope(const FieldCaptureScope&) = delete;
  FieldCaptureScope& operator=(const FieldCaptureScope&) = delete;

 private:
  WorkspaceSet* set_;
};

/// Sorted distinct grid rows (index / cols) covered by sorted flat bin
/// indices -- the row-skip list for the sparse transforms.
std::vector<std::uint32_t> occupied_rows(const std::vector<std::uint32_t>& bins,
                                         std::size_t cols);

}  // namespace bismo::sim

#endif  // BISMO_SIM_WORKSPACE_HPP

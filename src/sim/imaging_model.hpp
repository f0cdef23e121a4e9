// The unified imaging-engine layer.
//
// Both forward models of the paper decompose the aerial image into a sum of
// independent coherent systems:
//
//   Abbe    (Eq. 2):  I = (1/W) sum_sigma j_sigma |IFFT(H_sigma .* O)|^2
//   Hopkins (Eq. 4):  I =       sum_q    kappa_q |IFFT(phi_q   .* O)|^2
//
// and their manual adjoints share the mirrored structure
//
//   g_O += conj(K_c) .* adjoint-IFFT(g_field_c)   over component c's band.
//
// `ImagingModel` captures exactly that shape: a component count and a
// pass-band view per component (component weights travel with each pass,
// since the callers own the cutoff filtering).  The pooled,
// deterministically-reduced loops that the engines used to duplicate live
// here once (`accumulate_intensity`, `adjoint_pass`), run allocation-free
// over per-slot workspaces, and route every component through the
// workspace's `ImagingPipeline` -- the plan-time-specialized kernel
// chains of sim/pipeline.hpp, fused or staged per the process fusion
// mode.  Adding a new imaging backend means implementing the pure
// virtuals below -- the parallel loops, reduction policy, fused chains,
// and gradient plumbing come for free.
#ifndef BISMO_SIM_IMAGING_MODEL_HPP
#define BISMO_SIM_IMAGING_MODEL_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "math/grid2d.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/workspace.hpp"

namespace bismo::sim {

/// Abstract imaging engine: a weighted sum of coherent systems over a fixed
/// grid, with per-thread workspaces for allocation-free evaluation.
///
/// Thread-safety: the model itself is immutable after construction, but the
/// shared WorkspaceSet makes concurrent top-level evaluations of engines
/// sharing one set unsupported -- matching the thread pool's one-dispatch-
/// at-a-time contract (parallel/thread_pool.hpp).
class ImagingModel {
 public:
  virtual ~ImagingModel() = default;

  /// Mask/image grid dimension (grids are dim x dim).
  virtual std::size_t grid_dim() const noexcept = 0;

  /// Number of coherent components (Abbe: valid source points; Hopkins:
  /// retained SOCS kernels).
  virtual std::size_t components() const noexcept = 0;

  /// Pass-band view of component `c` (Abbe: shifted pupil band of one
  /// source point; Hopkins: one SOCS kernel).  The referenced index/value
  /// arrays must stay valid for the model's lifetime.
  virtual BandRef component_band(std::size_t c) const = 0;

  /// Coherent field of component `c` for mask spectrum `o`, written to
  /// `ws.field()` through the workspace pipeline (fused or staged).
  /// Allocation-free once `ws` is sized.
  void field_into(const ComplexGrid& o, std::size_t c, SimWorkspace& ws) const;

  /// Borrowed thread pool (null = serial).
  virtual ThreadPool* pool() const noexcept = 0;

  /// Shared per-slot workspaces used by the pooled passes.
  virtual WorkspaceSet& workspaces() const = 0;
};

/// Run `task(s)` for every reduction slot s < `slots` on the model's pool
/// (inline when serial or single-slot).  Slots pair with
/// `slot_range` (parallel/reduction.hpp) and the workspace `set.at(s)`.
/// The pool sees the task through a reference wrapper, which
/// std::function stores in place, so dispatching allocates nothing.
template <typename Task>
void run_slots(const ImagingModel& model, std::size_t slots,
               const Task& task) {
  ThreadPool* pool = model.pool();
  if (pool != nullptr && slots > 1) {
    pool->parallel_for(slots, std::cref(task));
  } else {
    for (std::size_t s = 0; s < slots; ++s) task(s);
  }
}

/// One work item of an `adjoint_pass`.  The item's cotangent seed is
/// scale * dldi (+ scale2 * dldi2 when the pass gets a second seed grid).
struct AdjointItem {
  std::uint32_t component = 0;  ///< model component index
  double scale = 0.0;   ///< first-seed factor (2 j/W or 2 kappa)
  double scale2 = 0.0;  ///< second-seed factor (ignored without dldi2)
  bool mask = false;    ///< push this component's adjoint into g_O?
};

/// Deterministic pooled forward pass:
///   out = sum_k weights[k] * |field(comps[k])|^2
/// partitioned over reduction slots (bitwise identical for any thread
/// count).  `comps` and `weights` run in lockstep.  When the workspace
/// set's field cache is armed (sim::FieldCaptureScope), each component's
/// field is written into its cache entry for the following adjoint_pass.
RealGrid accumulate_intensity(const ImagingModel& model, const ComplexGrid& o,
                              const std::vector<std::uint32_t>& comps,
                              const std::vector<double>& weights);

/// Deterministic pooled backward pass.  For every item (in order): obtain
/// the component field -- from the workspace set's field cache when the
/// intensity pass captured it, otherwise by recomputing the fused forward
/// chain into the slot workspace -- and, when `item.mask`, run the fused
/// adjoint chain (cotangent seed scale * dldi .* field folded into the
/// column pass) into a per-slot g_O partial.  When `wns` is non-null it is
/// resized to `items.size()` and entry k receives
/// sum_i dldi[i] * |field_k,i|^2 as one vectorized reduction over the
/// field (cached or recomputed) -- the source-gradient reduction.
/// With `wns` null, items without `mask` do no work (they only keep the
/// item list, and hence the slot partition, identical to a pass that
/// wants wns).  When `adjoint_uses_band_conv(model)` holds, the whole pass instead
/// runs the band-restricted direct adjoint: one dense FFT2 of `dldi` and
/// one dense offset window over it per pass, then per item an O(nbins^2)
/// circular convolution evaluated only at the band bins (one
/// FftKernel::band_conv call, bitwise equal across backends) -- no
/// per-item transform and no field (cached or recomputed) at all.
/// Returns the slot-order-combined g_O, or an empty grid when no item has
/// `mask` set.
///
/// A non-null `dldi2` adds a second seed grid: item k's cotangent becomes
/// (scale * dldi + scale2 * dldi2) .* field, so one sweep returns a linear
/// combination of two adjoints with per-item factors (BiSMO's fused
/// hypergradient, grad/hvp.hpp).  The band-convolution path transforms
/// both seeds once, interleaves them in the window and convolves both in
/// the same kernel call; the field paths form the combined seed per item
/// in a slot buffer.  A warmed band-convolution pass allocates only the
/// returned g_O.  `wns` must be null with two seeds (throws
/// std::invalid_argument).  Single-seed calls are unchanged bit for bit.
ComplexGrid adjoint_pass(const ImagingModel& model, const ComplexGrid& o,
                         const RealGrid& dldi,
                         const std::vector<AdjointItem>& items,
                         std::vector<double>* wns = nullptr,
                         const RealGrid* dldi2 = nullptr);

/// Number of `adjoint_pass` calls made by this process so far (relaxed
/// counter; tests use it to check how many backward sweeps a solver runs).
std::uint64_t adjoint_pass_calls();

/// True when `adjoint_pass` will run the band-restricted direct adjoint
/// for this model: fused mode, a fused-capable grid (Fft2dPlan::fused_cols),
/// and every component band narrow enough that the O(nbins^2) circular
/// convolution beats a dense column transform.  The direct adjoint needs
/// no coherent fields, so callers can skip arming the field capture
/// (sim::FieldCaptureScope) when this returns true.
bool adjoint_uses_band_conv(const ImagingModel& model);

/// True when `SourceImageCache::fill` computes each point's image spectrum
/// by autocorrelating the band (about nbins^2 / 2 complex products) rather
/// than running the point's forward chain and one forward transform of its
/// image: fused mode and every component band narrow enough for the
/// product count to beat the two transforms (the crossover is measured in
/// the definition).  Staged mode always takes the chain.
bool image_fill_uses_autocorrelation(const ImagingModel& model);

}  // namespace bismo::sim

#endif  // BISMO_SIM_IMAGING_MODEL_HPP

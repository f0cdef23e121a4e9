// The fused per-shape imaging pipeline layer.
//
// PR 5 vectorized each stage of the imaging hot path, but the stages still
// ran as separate kernel-table calls that re-traversed whole grids between
// them: gather the pass-band product, row IFFTs, column pass, 1/N scale,
// |field|^2 accumulate (and the adjoint mirror: cotangent seed, column
// pass, band-row FFTs, scatter-accumulate).  An `ImagingPipeline` is built
// once per workspace shape and lowers those stage sequences into fused
// kernel chains specialized for the concrete shape:
//
//   * power-of-two grids run the `pow2_cols_fused` kernel entry -- the
//     bit-reversal gather, the optional cotangent seed, the 1/N scale and
//     the per-scenario weighted-norm epilogues all fold into the first and
//     last butterfly stages, so the column pass touches each grid once;
//   * the row-sparsity pattern of the pass-band (tracked as per-row flags)
//     lets the fused gather skip rows that are exactly zero;
//   * Bluestein and sub-8 shapes fall back to the equivalent staged
//     sequence inside the same entry points, so callers never branch.
//
// The per-stage ops remain as the staged reference the fused chains are
// verified against (tests/test_fused_pipeline.cpp), and the legacy staged
// path stays selectable in-process: `set_fusion_enabled(false)` rebuilds
// pipelines in staged mode (tests and benches use it as the oracle).  A fixed
// (backend, mode) pair is bitwise deterministic across thread and lane
// counts; fused and staged agree to <= 1e-12.
#ifndef BISMO_SIM_PIPELINE_HPP
#define BISMO_SIM_PIPELINE_HPP

#include <complex>
#include <cstddef>
#include <cstdint>

#include "fft/fft.hpp"
#include "math/grid2d.hpp"

namespace bismo::sim {

/// View of one coherent component's pass-band: sorted flat spectrum bins,
/// optional per-bin pupil values (null = unit pupil), and the sorted
/// distinct grid rows the bins cover (see `occupied_rows`).  Non-owning;
/// valid as long as the imaging model that produced it.
struct BandRef {
  const std::uint32_t* bins = nullptr;
  const std::complex<double>* vals = nullptr;
  std::size_t nbins = 0;
  const std::uint32_t* rows = nullptr;
  std::size_t nrows = 0;
};

/// Process-wide fusion mode (default on).
bool fusion_enabled();

/// Override the fusion mode (tests and benches).  Pipelines built under
/// the old mode report `stale()` and are rebuilt by `SimWorkspace::ensure`;
/// must not race with in-flight evaluations.
void set_fusion_enabled(bool on);

/// Name of the active mode ("fused" or "staged") -- stamped into benchmark
/// reports alongside the FFT backend.
const char* fusion_mode_name();

/// Plan-time-specialized kernel chains for one grid shape.  Built by
/// `SimWorkspace::ensure`; immutable afterwards (rebuild to change shape
/// or mode).  All methods are allocation-free and touch only the caller's
/// buffers.
class ImagingPipeline {
 public:
  ImagingPipeline() = default;

  /// Plan and specialize for dim x dim grids, capturing the process
  /// fusion mode at build time.
  void build(std::size_t dim);

  std::size_t dim() const noexcept { return dim_; }
  const Fft2dPlan& plan() const noexcept { return plan_; }

  /// True when the fused chains were selected at build time (mode on and
  /// the shape has fused kernels).
  bool fused() const noexcept { return fused_; }

  /// True when the process fusion mode changed since `build` (the owning
  /// workspace rebuilds on its next `ensure`).
  bool stale() const noexcept;

  /// Forward chain: field = (1/N) IFFT2(band .* o), with optional fused
  /// epilogues -- when `acc` is non-null, acc += acc_weight * |field|^2;
  /// when `wns_weights` is non-null, returns sum_i wns_weights[i] *
  /// |field_i|^2 (0.0 otherwise).  `spectrum` and `row_flags` (length
  /// dim) are scratch owned by the caller; `field` receives the
  /// normalized coherent field either way.
  double forward(const ComplexGrid& o, const BandRef& band,
                 ComplexGrid& spectrum, std::uint8_t* row_flags,
                 ComplexGrid& field, RealGrid* acc, double acc_weight,
                 const double* wns_weights,
                 std::complex<double>* scratch) const;

  /// Adjoint chain: go[bins] += conj(band) .* FFT2(scale * dldi .* field)
  /// / N over the band bins, using `cotangent` as the transform buffer
  /// (contents destroyed).  The cotangent seed never materializes on the
  /// fused path; the staged path seeds then transforms.  When `want_wns`
  /// is set, returns sum_i dldi[i] * |field_i|^2 (the source-gradient
  /// reduction, folded into the fused chain's seeded loads so the field
  /// is read exactly once); 0.0 otherwise.
  double adjoint(const double* dldi, double scale, const ComplexGrid& field,
                 const BandRef& band, ComplexGrid& cotangent, ComplexGrid& go,
                 std::complex<double>* scratch, bool want_wns = false) const;

 private:
  double forward_fused(const ComplexGrid& o, const BandRef& band,
                       ComplexGrid& spectrum, std::uint8_t* row_flags,
                       ComplexGrid& field, RealGrid* acc, double acc_weight,
                       const double* wns_weights,
                       std::complex<double>* scratch) const;
  double forward_staged(const ComplexGrid& o, const BandRef& band,
                        ComplexGrid& field, RealGrid* acc, double acc_weight,
                        const double* wns_weights,
                        std::complex<double>* scratch) const;

  std::size_t dim_ = 0;
  Fft2dPlan plan_;
  bool fused_ = false;
  bool built_mode_ = true;  ///< fusion_enabled() observed at build time
};

}  // namespace bismo::sim

#endif  // BISMO_SIM_PIPELINE_HPP

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
//     the per-scenario acc += w * |field|^2 epilogue all fold into the
//     first and last butterfly stages, so the column pass touches each
//     grid once;
//   * mixed-radix grids (side r * 2^k, odd r <= 15, e.g. 96) fold the same
//     gather and seed into the digit-reversing copy and the same
//     epilogues into the odd-factor pass (`Fft2dPlan::transform_cols_fused`);
//   * the row-sparsity pattern of the pass-band (tracked as per-row flags)
//     lets the fused gather skip rows that are exactly zero.
//
// Every validated grid (OpticsConfig::validate: a smooth mask_dim >= 8) has
// a fused column pass, so there is one chain per direction.  The fused
// chains are verified against a per-point reference built on the generic
// transforms (tests/imaging_reference.hpp) and the per-stage column ops
// (tests/test_fused_pipeline.cpp); a fixed backend is bitwise
// deterministic across thread and lane counts, and the chains agree with
// the reference to <= 1e-12.
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

/// Name of the imaging pipeline ("fused") -- stamped into benchmark
/// reports alongside the FFT backend.
const char* fusion_mode_name();

/// Plan-time-specialized kernel chains for one grid shape.  Built by
/// `SimWorkspace::ensure`; immutable afterwards (rebuild to change
/// shape).  All methods are allocation-free and touch only the caller's
/// buffers.
class ImagingPipeline {
 public:
  ImagingPipeline() = default;

  /// Plan and specialize for dim x dim grids.
  void build(std::size_t dim);

  std::size_t dim() const noexcept { return dim_; }
  const Fft2dPlan& plan() const noexcept { return plan_; }

  /// Forward chain: field = (1/N) IFFT2(band .* o), with an optional
  /// fused epilogue -- when `acc` is non-null, acc += acc_weight *
  /// |field|^2.  `spectrum` and `row_flags` (length dim) are scratch owned
  /// by the caller; `field` receives the normalized coherent field either
  /// way.
  void forward(const ComplexGrid& o, const BandRef& band,
               ComplexGrid& spectrum, std::uint8_t* row_flags,
               ComplexGrid& field, RealGrid* acc, double acc_weight,
               std::complex<double>* scratch) const;

  /// Adjoint chain: go[bins] += conj(band) .* FFT2(scale * dldi .* field)
  /// / N over the band bins, using `cotangent` as the transform buffer
  /// (contents destroyed).  The cotangent seed never materializes: it is
  /// computed inside the column pass's loads.
  void adjoint(const double* dldi, double scale, const ComplexGrid& field,
               const BandRef& band, ComplexGrid& cotangent, ComplexGrid& go,
               std::complex<double>* scratch) const;

 private:
  std::size_t dim_ = 0;
  Fft2dPlan plan_;
};

}  // namespace bismo::sim

#endif  // BISMO_SIM_PIPELINE_HPP

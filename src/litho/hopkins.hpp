// Hopkins / SOCS forward imaging engine (paper Eqs. 3-4).
//
// The transmission cross-coefficients are never formed explicitly.  Stack
// the shifted pupils into A with one row per effective source point,
//   A[sigma][b] = sqrt(j_sigma / W) * H(f_b + f_sigma),
// restricted to the band-limited frequency list {f_b}; then TCC = A^H A and
// the SOCS kernels are the eigenpairs of TCC.  We obtain them exactly from
// the small sigma x sigma Gram matrix G = A A^H (cyclic Jacobi), mapping
// eigenvectors back through A^H:
//   G u_q = kappa_q u_q   =>   phi_q = A^H u_q / sqrt(kappa_q),
// so that  I = sum_q kappa_q |IFFT(phi_q .* O)|^2  (Eq. 4) and, at full rank
// Q = rank(G), Hopkins reproduces Abbe up to floating-point roundoff --
// truncation to Q kernels is the *only* approximation, exactly as in the
// paper's comparison.
//
// The 1/W normalization matches the Abbe engine (clear field = 1).
#ifndef BISMO_LITHO_HOPKINS_HPP
#define BISMO_LITHO_HOPKINS_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "litho/abbe.hpp"
#include "litho/optics.hpp"
#include "litho/source.hpp"
#include "math/grid2d.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/imaging_model.hpp"

namespace bismo {

/// One SOCS coherent kernel: weight kappa_q and the frequency-domain kernel
/// values over the shared band index list.
struct SocsKernel {
  double weight = 0.0;                        ///< kappa_q (eigenvalue)
  std::vector<std::complex<double>> values;   ///< phi_q over band indices
};

/// Truncated sum-of-coherent-systems decomposition of the TCC for a fixed
/// grayscale source.  Rebuilding after a source change is the expensive
/// TCC-regeneration step that slows the Abbe-Hopkins hybrid AM-SMO [13].
class SocsDecomposition {
 public:
  /// Decompose for the given source magnitudes.  `q` kernels are kept
  /// (paper Sec. 4: Q = 24); fewer when the source has lower rank.
  /// `cutoff` drops source points with weight below it from the stack.
  SocsDecomposition(const AbbeImaging& abbe, const RealGrid& source,
                    std::size_t q, double cutoff = 1e-9);

  /// Shared band-limited frequency bin list (flat indices, row-major).
  const std::vector<std::uint32_t>& band() const noexcept { return band_; }

  /// Retained kernels, strongest first.
  const std::vector<SocsKernel>& kernels() const noexcept { return kernels_; }

  /// Sum of *all* eigenvalues (= trace of TCC); the retained fraction
  /// sum(kappa_q)/trace quantifies the truncation error.
  double eigenvalue_trace() const noexcept { return trace_; }

  /// Dense frequency-domain kernel for visualization/tests.
  ComplexGrid dense_kernel(std::size_t q, std::size_t mask_dim) const;

 private:
  std::vector<std::uint32_t> band_;
  std::vector<SocsKernel> kernels_;
  double trace_ = 0.0;
};

/// Hopkins forward imaging engine (Eq. 4) over a prebuilt decomposition.
/// Implements the unified `sim::ImagingModel` interface (one component per
/// SOCS kernel) so it shares the allocation-free pooled passes -- and,
/// optionally, the per-thread workspaces -- with the Abbe engine.
class HopkinsImaging : public sim::ImagingModel {
 public:
  /// `pool` may be null; borrowed, not owned.  `workspaces` may be shared
  /// with the Abbe engine of the same problem (null = a fresh set).
  HopkinsImaging(const OpticsConfig& optics, SocsDecomposition socs,
                 ThreadPool* pool = nullptr,
                 std::shared_ptr<sim::WorkspaceSet> workspaces = nullptr);

  /// Aerial intensity for mask spectrum `o` (= fft2 of activated mask).
  RealGrid aerial(const ComplexGrid& o) const;

  const SocsDecomposition& socs() const noexcept { return socs_; }
  const OpticsConfig& optics() const noexcept { return optics_; }

  // ---- sim::ImagingModel ----
  std::size_t grid_dim() const noexcept override { return optics_.mask_dim; }
  std::size_t components() const noexcept override {
    return socs_.kernels().size();
  }
  sim::BandRef component_band(std::size_t c) const override;
  ThreadPool* pool() const noexcept override { return pool_; }
  sim::WorkspaceSet& workspaces() const override { return *workspaces_; }

 private:
  OpticsConfig optics_;
  SocsDecomposition socs_;
  /// Sorted occupied grid rows of the shared band (the row-skip list).
  std::vector<std::uint32_t> band_rows_;
  ThreadPool* pool_;
  std::shared_ptr<sim::WorkspaceSet> workspaces_;
};

}  // namespace bismo

#endif  // BISMO_LITHO_HOPKINS_HPP

// The SIMD multi-backend FFT kernel layer.
//
// Everything below the `Fft1dPlan`/`Fft2dPlan` planning API -- the
// power-of-two butterflies, the odd-factor pass of mixed-radix lengths,
// twiddle multiplication, and the per-pixel elementwise loops that sit
// next to the transforms in the imaging engines -- runs through an
// `FftKernel`: a table of function pointers with one implementation per
// instruction set.  The scalar kernel is the portable reference; the AVX2
// kernel (x86-64, selected when the CPU reports AVX2+FMA) executes the same
// algorithms with wide arithmetic.  Other CPUs run the scalar kernel.
//
// Backend selection happens once at startup by runtime CPU detection and
// can be overridden with the `BISMO_FFT_BACKEND` environment variable
// (`scalar` | `avx2` | `auto`) or programmatically via
// `set_backend` (tests and benches switch backends this way).  Every
// kernel is deterministic: a fixed backend produces bitwise-identical
// results run to run and across thread counts, because the kernel is pure
// straight-line arithmetic over caller-owned data.  Different backends
// agree to tight tolerance (<= 1e-12 relative; see tests/
// test_fft_kernels.cpp) but not bitwise -- FMA contraction reorders
// roundoff -- which is why the backend name is surfaced in JobResult JSON
// and bench reports.  The exceptions are `band_conv` and
// `xcorr_accumulate`, which avoid FMA and are bitwise equal across
// backends.
//
// Switching backends while transforms are in flight is not supported; the
// active-kernel pointer itself is an atomic, so a switch between jobs or
// between test cases is safe.
#ifndef BISMO_FFT_KERNELS_KERNEL_HPP
#define BISMO_FFT_KERNELS_KERNEL_HPP

#include <complex>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fft/kernels/plan.hpp"

namespace bismo::fft {

/// One FFT/elementwise execution backend.  All pointers are non-null in a
/// registered kernel; all routines are allocation-free and thread-safe
/// (they touch only the arguments).
struct FftKernel {
  const char* name = nullptr;

  /// In-place unnormalized DFTs of `count` rows of length `plan.n`, with
  /// consecutive rows `stride` complex elements apart (`stride >= plan.n`).
  /// The batched entry point lets 2-D transforms run every row pass in one
  /// call, keeping the per-stage twiddle arrays hot across rows.
  void (*pow2_many)(const fft_detail::Pow2Plan& plan,
                    std::complex<double>* data, std::size_t count,
                    std::size_t stride, bool inverse) = nullptr;

  /// In-place unnormalized DFTs of `width` interleaved sequences
  /// ("columns"): element j of sequence c is `data[j * stride + c]`.  The
  /// column pass of a 2-D transform runs all columns in lock-step over
  /// whole rows -- bit reversal becomes row swaps and every butterfly is a
  /// unit-stride pass with broadcast twiddles, so no per-column
  /// gather/scatter and no transpose.
  void (*pow2_cols)(const fft_detail::Pow2Plan& plan,
                    std::complex<double>* data, std::size_t width,
                    std::size_t stride, bool inverse) = nullptr;

  /// Fused out-of-place column pass -- the per-shape pipeline primitive
  /// (see fft_detail::ColsFusion).  Reads `fusion.src` rows through the
  /// bit-reversal permutation inside the first butterfly stage (skipping
  /// rows flagged zero, applying the optional cotangent seed on the fly)
  /// and applies the scale / weighted-norm epilogue inside the final
  /// stage, so a forward or adjoint column transform plus its neighboring
  /// elementwise stages costs one read and one write of the grid instead
  /// of one per stage.  Precondition: `plan.n >= 8` (first and last
  /// stages are distinct); `Fft2dPlan::transform_cols_fused` runs the
  /// mixed-radix pass for lengths r * 2^k and the equivalent staged
  /// sequence for Bluestein and sub-8 power-of-two shapes.
  /// Arithmetic is per-element identical to the staged sequence (gather,
  /// pow2_cols, scale, accumulate_norm), except that
  /// rows flagged zero produce literal +0.0 where the staged path may
  /// round to -0.0.
  void (*pow2_cols_fused)(const fft_detail::Pow2Plan& plan,
                          const fft_detail::ColsFusion& fusion,
                          std::complex<double>* dst, std::size_t width,
                          std::size_t stride, bool inverse) = nullptr;

  /// Odd-factor pass of a mixed-radix transform (fft_detail::MixedPlan,
  /// step 3), in place over `width` interleaved lanes: point p of lane c
  /// is `data[p * stride + c]`.  On entry point n1*m + k2 holds the
  /// sub-transform value Z_{n1}[k2]; for every (k2, lane) the pass
  /// multiplies Z_{n1}[k2] by W_n^{n1*k2} (conjugated for `inverse`), takes
  /// the length-r DFT over n1, and stores output k1 at point k1*m + k2,
  /// which is natural order.  Rows pass `width = stride = 1` and vector
  /// backends then use the m points of a sub-block as lanes; the lock-step
  /// column pass uses whole grid rows as lanes.  A non-null `epilogue`
  /// applies the fused column pass's output epilogue (ColsFusion `scale`,
  /// then `norm_acc`, indexed p * width + c) to every store; its
  /// input-side fields are ignored.
  void (*mixed_odd)(const fft_detail::MixedPlan& plan,
                    std::complex<double>* data, std::size_t width,
                    std::size_t stride, bool inverse,
                    const fft_detail::ColsFusion* epilogue) = nullptr;

  /// x[i] *= s.
  void (*scale)(std::complex<double>* x, std::size_t n, double s) = nullptr;

  /// dst[i] = a[i] * b[i].
  void (*cmul)(std::complex<double>* dst, const std::complex<double>* a,
               const std::complex<double>* b, std::size_t n) = nullptr;

  /// dst[i] *= b[i], or dst[i] *= conj(b[i]) when `conj_b`.
  void (*cmul_inplace)(std::complex<double>* dst,
                       const std::complex<double>* b, std::size_t n,
                       bool conj_b) = nullptr;

  /// dst[i] += s * a[i].
  void (*caxpy)(std::complex<double>* dst, const std::complex<double>* a,
                std::size_t n, double s) = nullptr;

  /// dst[i] += s * a[i] * conj(b[i]) -- the band-restricted adjoint
  /// accumulation fused over one contiguous pass-band run.
  void (*cmul_conj_axpy)(std::complex<double>* dst,
                         const std::complex<double>* a,
                         const std::complex<double>* b, std::size_t n,
                         double s) = nullptr;

  /// acc[i] += w * |a[i]|^2 -- the weighted intensity accumulation.
  void (*accumulate_norm)(double* acc, const std::complex<double>* a,
                          std::size_t n, double w) = nullptr;

  /// sum_i w[i] * |a[i]|^2 -- the source-gradient reduction.
  double (*weighted_norm_sum)(const double* w, const std::complex<double>* a,
                              std::size_t n) = nullptr;

  /// ga[i] = s * dldi[i] * a[i] (real grid times complex field) -- the
  /// cotangent seed of the adjoint pass.
  void (*seed_cotangent)(std::complex<double>* ga, const double* dldi,
                         const std::complex<double>* a, std::size_t n,
                         double s) = nullptr;

  /// Band-restricted circular convolution of the direct adjoint
  /// (sim::adjoint_pass): for every band bin i and seed k < `seeds` (1 or 2),
  ///   u[i * seeds + k] = sum_{j < nbins} s[j] * W_k[off[i] - off[j]],
  /// with j running in band order.  `off` holds one int32 window offset per
  /// bin, and `window` points at offset 0 of a dense window holding
  /// `seeds` interleaved complex values per offset ({D, D2} pairs for two
  /// seeds).  The caller guarantees that every off[i] and every
  /// off[i] - off[j] lies inside it (offsets taken relative to one bin of
  /// the band do), so the loop has no modulo, no branch and unit-stride
  /// loads.
  /// Each term is re = sr*wr - si*wi, im = sr*wi + si*wr, each product
  /// rounded, then one add into the running sum.  No backend contracts
  /// these into FMAs: a fused multiply-add rounds once where the scalar
  /// form rounds twice, so it would move the last bit.  The op is
  /// therefore bitwise equal across backends (and to std::complex
  /// arithmetic), stronger than the <= 1e-12 contract of the other ops.
  void (*band_conv)(const std::complex<double>* s, const std::int32_t* off,
                    std::size_t nbins, const std::complex<double>* window,
                    std::size_t seeds, std::complex<double>* u) = nullptr;

  /// Accumulated cross-correlation of two row segments -- the
  /// autocorrelation fill of sim::SourceImageCache:
  ///   out[k] += sum_j x[j + k] * conj(y[j]),   1 - ny <= k < nx,
  /// with j running over [max(0, -k), min(ny, nx - k)) in ascending order
  /// into a zero accumulator that is added to out[k] once; `out` points at
  /// lag 0.  `x` must be readable and zero for kXcorrPad values on each
  /// side (vector backends run whole blocks of lags).  Each term is
  /// re = sr*xr - si*xi, im = sr*xi + si*xr with (sr, si) = conj(y[j]),
  /// each product rounded, as in band_conv: no FMA, so the op is bitwise
  /// equal across backends.
  void (*xcorr_accumulate)(const std::complex<double>* x, std::size_t nx,
                           const std::complex<double>* y, std::size_t ny,
                           std::complex<double>* out) = nullptr;

  /// acc[i] += x[i] (slot-order reduction combine).
  void (*add_real)(double* acc, const double* x, std::size_t n) = nullptr;
  void (*add_complex)(std::complex<double>* acc,
                      const std::complex<double>* x,
                      std::size_t n) = nullptr;

  /// out[i] = 1 / (1 + exp(-alpha * (x[i] - shift))) -- the Table 1 mask/
  /// source activation (shift = 0) and the Eq. 6 resist threshold
  /// (alpha = beta, shift = I_tr).  SIMD backends use a vectorized
  /// double-precision exp accurate to ~1 ulp, so cross-backend agreement
  /// holds to <= 1e-12 relative like the transforms.
  void (*sigmoid)(double* out, const double* x, std::size_t n, double alpha,
                  double shift) = nullptr;
};

/// Zero values FftKernel::xcorr_accumulate may read on each side of `x`.
inline constexpr std::size_t kXcorrPad = 3;

/// Portable reference kernel (always available).
const FftKernel& scalar_kernel();

/// AVX2+FMA kernel, or null when not compiled in or the CPU lacks AVX2.
const FftKernel* avx2_kernel();

/// The active kernel: resolved once at first use from the CPU and the
/// `BISMO_FFT_BACKEND` environment variable, then read via one atomic
/// load per call site.
const FftKernel& active_kernel();

/// Name of the active backend ("scalar" or "avx2").
const char* backend_name();

/// Backends usable on this machine (compiled in and CPU-supported),
/// best-first; "scalar" is always present.
std::vector<std::string> available_backends();

/// Select a backend by name ("auto" re-runs detection).  Returns false --
/// and leaves the active kernel unchanged -- when the name is unknown or
/// the backend is unavailable on this machine.  Must not race with
/// in-flight transforms.
bool set_backend(const std::string& name);

}  // namespace bismo::fft

#endif  // BISMO_FFT_KERNELS_KERNEL_HPP

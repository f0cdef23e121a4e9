// FFT engine underlying both imaging models.
//
// The Abbe model computes one IFFT per source point (Eq. 2); the Hopkins
// model one IFFT per SOCS kernel (Eq. 4); the manual reverse-mode gradients
// require the *adjoint* transforms.  Conventions:
//
//   fft  : X[k] = sum_n x[n] exp(-2*pi*i*k*n/N)        (unnormalized)
//   ifft : x[n] = (1/N) sum_k X[k] exp(+2*pi*i*k*n/N)  (1/N-normalized)
//
// so that ifft(fft(x)) == x.  In matrix form F^H F = N*I, hence the adjoints
//   adjoint(fft)  = N * ifft      adjoint(ifft) = (1/N) * fft
// which `fft2_adjoint` / `ifft2_adjoint` implement directly.
//
// Every length is *smooth*: r * 2^k with odd r <= kMaxOddFactor (15).
// Power-of-two lengths run an iterative radix-4 (plus one radix-2 stage for
// odd log2) decimation-in-time transform; the others (12, 24, 80, 96, 120,
// ...) run a mixed-radix plan: a digit reversal, the power-of-two kernels
// on the r sub-blocks, then one odd-factor pass.  Planning any other length
// (odd part above 15: 17, 34, 100, ...) throws; `OpticsConfig::validate`
// rejects such a mask_dim and shard::TilePlan rounds its windows up to the
// next smooth side, so no grid the library builds reaches that error.
// Butterfly execution lives in the SIMD multi-backend kernel layer
// (fft/kernels/): a scalar reference kernel plus an AVX2 kernel selected
// once at startup by runtime CPU detection, overridable via the
// BISMO_FFT_BACKEND environment variable or fft::set_backend.  A fixed
// backend is bitwise deterministic; different backends agree to <= 1e-12
// relative error.
//
// All entry points are thread-safe (the plan cache is shared_mutex-guarded:
// lookups of existing plans take a shared lock, first-time plan construction
// an exclusive one; transforms touch only caller-owned data), which the
// per-source-point thread-pool parallelism relies on.
//
// Hot paths should not pay even the shared lock per transform: `Fft1dPlan` /
// `Fft2dPlan` resolve the cached plan data once at construction and then
// execute transforms with zero lock acquisitions and zero heap allocations
// (mixed-radix row scratch is caller-provided).  `Fft2dPlan` executes all
// row transforms of a pass in one batched kernel call (`transform_rows`)
// and runs the column pass with all columns in lock-step over whole rows
// (no per-column gather/scatter, no transpose).  `sim::SimWorkspace` holds one
// `Fft2dPlan` plus scratch per worker slot, which is how the imaging
// engines keep their steady-state loops allocation- and lock-free.
#ifndef BISMO_FFT_FFT_HPP
#define BISMO_FFT_FFT_HPP

#include <complex>
#include <cstddef>
#include <vector>

#include "math/grid2d.hpp"

namespace bismo {

namespace fft_detail {
struct Pow2Plan;
struct MixedPlan;
struct ColsFusion;
}  // namespace fft_detail

/// Largest odd factor of a smooth FFT length.  At r = 15 a mixed-radix
/// plan measured 3.0-3.5x faster than a chirp-z one (README, FFT section);
/// larger odd factors are not planned at all.
inline constexpr std::size_t kMaxOddFactor = 15;

/// True when `n` is a plannable FFT length: n = r * 2^k with odd
/// r <= kMaxOddFactor (every power of two, 12, 24, 80, 96, 104, ...).
bool is_smooth_length(std::size_t n);

/// Smallest smooth length >= n (1 for n == 0).
std::size_t next_smooth_length(std::size_t n);

/// Preplanned in-place 1-D DFT of a fixed length.
///
/// Construction resolves the process-wide cached plan (taking the cache lock
/// at most twice); `transform` then runs without locks or allocations.  The
/// referenced plan data is immutable and lives for the process lifetime, so
/// handles are freely copyable and usable from any thread.
class Fft1dPlan {
 public:
  /// Empty handle; `transform` on it is invalid.
  Fft1dPlan() = default;

  /// Plan a transform of length `n`; throws std::invalid_argument unless
  /// `is_smooth_length(n)`.
  explicit Fft1dPlan(std::size_t n);

  std::size_t length() const noexcept { return n_; }

  /// Scratch elements `transform` needs: 0 for power-of-two lengths, the
  /// length itself for mixed-radix ones (the digit reversal's copy).
  std::size_t scratch_size() const noexcept;

  /// In-place transform of `data[0..length())`.  Forward is unnormalized;
  /// inverse is the *unnormalized* conjugate transform (callers apply 1/n).
  /// `scratch` must provide `scratch_size()` elements (may be null when
  /// `scratch_size() == 0`).
  void transform(std::complex<double>* data, bool inverse,
                 std::complex<double>* scratch = nullptr) const;

  /// In-place transforms of `count` rows of `length()` elements each,
  /// consecutive rows `stride` elements apart.  Power-of-two lengths run
  /// in one batched kernel call; other lengths loop per row.
  void transform_many(std::complex<double>* data, std::size_t count,
                      std::size_t stride, bool inverse,
                      std::complex<double>* scratch = nullptr) const;

  /// In-place transforms of `width` interleaved sequences ("columns"):
  /// element j of sequence c is `data[j * stride + c]`.  All columns run
  /// in lock-step over whole rows (no gather/scatter, no transpose).
  void transform_columns(std::complex<double>* data, std::size_t width,
                         std::size_t stride, bool inverse) const;

  /// True when `transform_columns_fused` is available: mixed-radix
  /// lengths and power-of-two lengths >= 8.
  bool fused_columns() const noexcept;

  /// Fused out-of-place column transform (see fft_detail::ColsFusion):
  /// reads `fusion.src` through the input permutation (inside the first
  /// butterfly stage for power-of-two lengths, in the digit-reversing
  /// copy for mixed-radix ones) and applies the scale / weighted-norm
  /// epilogue inside the last stage or the odd pass.  Throws
  /// std::logic_error unless `fused_columns()`.
  void transform_columns_fused(const fft_detail::ColsFusion& fusion,
                               std::complex<double>* dst, std::size_t width,
                               std::size_t stride, bool inverse) const;

 private:
  std::size_t n_ = 0;
  const fft_detail::Pow2Plan* pow2_ = nullptr;
  const fft_detail::MixedPlan* mixed_ = nullptr;
};

/// Preplanned 2-D DFT for a fixed (rows x cols) grid shape.
///
/// Only the row transforms take scratch (`scratch_size()` elements, the
/// row plan's); the column pass runs all columns in lock-step over whole
/// rows through the batched kernel layer, in place.
class Fft2dPlan {
 public:
  Fft2dPlan() = default;
  Fft2dPlan(std::size_t rows, std::size_t cols);

  std::size_t rows() const noexcept { return col_plan_.length(); }
  std::size_t cols() const noexcept { return row_plan_.length(); }

  /// Scratch elements required by every transform method.
  std::size_t scratch_size() const noexcept;

  /// In-place unnormalized forward 2-D DFT.
  void forward(ComplexGrid& g, std::complex<double>* scratch) const;

  /// In-place 1/(rows*cols)-normalized inverse 2-D DFT.
  void inverse(ComplexGrid& g, std::complex<double>* scratch) const;

  /// In-place unnormalized 2-D DFT (forward, or the conjugate transform
  /// when `inverse`; no 1/N).  The adjoint building block.
  void transform(ComplexGrid& g, bool inverse,
                 std::complex<double>* scratch) const;

  /// In-place unnormalized 1-D transform of one row (length `cols()`).
  /// Building block for engines that skip all-zero rows.
  void transform_row(std::complex<double>* row, bool inverse,
                     std::complex<double>* scratch) const;

  /// In-place unnormalized 1-D transforms of `nrows` *consecutive* grid
  /// rows starting at `rows` (each `cols()` long, stride `cols()`), batched
  /// into one kernel call for power-of-two widths.  Engines batch their
  /// pass-band row runs through this instead of per-row calls.
  void transform_rows(std::complex<double>* rows, std::size_t nrows,
                      bool inverse, std::complex<double>* scratch) const;

  /// In-place unnormalized 1-D transforms of every column.
  void transform_cols(ComplexGrid& g, bool inverse) const;

  /// Fused out-of-place column pass (see fft_detail::ColsFusion):
  /// `fusion.src` is a rows() x cols() grid (same stride as `dst`) read
  /// through the input permutation -- rows flagged zero are never
  /// touched, the optional cotangent seed is applied on the fly -- every
  /// column is transformed into `dst`, and the scale / weighted-norm
  /// epilogue runs inside the final stage's stores.  The result matches
  /// the per-stage sequence (materialize the input, `transform_cols`, then
  /// the epilogue ops; the test oracle `per_stage_cols_reference` in
  /// tests/test_fused_pipeline.cpp) to <= 1e-12 (identical per-element
  /// arithmetic up to compiler FMA contraction).  Row counts are mixed-radix or
  /// powers of two >= 8 (every validated mask_dim); others throw
  /// std::logic_error.
  void transform_cols_fused(const fft_detail::ColsFusion& fusion,
                            ComplexGrid& dst, bool inverse) const;

 private:
  Fft1dPlan row_plan_;  ///< length cols (transforms along a row)
  Fft1dPlan col_plan_;  ///< length rows (transforms along a column)
};

/// In-place forward DFT of length-n contiguous data (unnormalized).
void fft_1d(std::complex<double>* data, std::size_t n);

/// In-place inverse DFT of length-n contiguous data (1/n-normalized).
void ifft_1d(std::complex<double>* data, std::size_t n);

/// Convenience overloads on vectors.
void fft_1d(std::vector<std::complex<double>>& data);
void ifft_1d(std::vector<std::complex<double>>& data);

/// In-place 2-D forward DFT (unnormalized), rows then columns.
void fft2(ComplexGrid& g);

/// In-place 2-D inverse DFT (1/(rows*cols)-normalized).
void ifft2(ComplexGrid& g);

/// Out-of-place 2-D forward DFT.
ComplexGrid fft2_copy(const ComplexGrid& g);

/// Out-of-place 2-D inverse DFT.
ComplexGrid ifft2_copy(const ComplexGrid& g);

/// Adjoint of `fft2` as a linear operator: returns N * ifft2(g).
/// If y = fft2(x), then for any cotangent gy, gx = fft2_adjoint(gy).
ComplexGrid fft2_adjoint(const ComplexGrid& g);

/// Adjoint of `ifft2` as a linear operator: returns (1/N) * fft2(g).
/// If y = ifft2(x), then for any cotangent gy, gx = ifft2_adjoint(gy).
ComplexGrid ifft2_adjoint(const ComplexGrid& g);

/// Circularly shift a grid: out((r+dr) mod R, (c+dc) mod C) = in(r, c).
template <typename T>
Grid2D<T> circshift(const Grid2D<T>& g, std::size_t dr, std::size_t dc) {
  Grid2D<T> out(g.rows(), g.cols());
  for (std::size_t r = 0; r < g.rows(); ++r) {
    const std::size_t rr = (r + dr) % g.rows();
    for (std::size_t c = 0; c < g.cols(); ++c) {
      out(rr, (c + dc) % g.cols()) = g(r, c);
    }
  }
  return out;
}

/// Move the zero-frequency bin to the grid center (numpy fftshift).
template <typename T>
Grid2D<T> fftshift(const Grid2D<T>& g) {
  return circshift(g, g.rows() / 2, g.cols() / 2);
}

/// Inverse of fftshift (numpy ifftshift); equals fftshift for even sizes.
template <typename T>
Grid2D<T> ifftshift(const Grid2D<T>& g) {
  return circshift(g, g.rows() - g.rows() / 2, g.cols() - g.cols() / 2);
}

/// Signed DFT frequency of bin `k` out of `n` with sample pitch `d`:
/// k in [0, n) maps to {0, 1, ..., n/2, -(n/2-1), ..., -1} / (n*d).
double fft_freq(std::size_t k, std::size_t n, double d);

/// Signed integer frequency index of bin `k` out of `n` (fft_freq * n * d).
long fft_freq_index(std::size_t k, std::size_t n);

}  // namespace bismo

#endif  // BISMO_FFT_FFT_HPP

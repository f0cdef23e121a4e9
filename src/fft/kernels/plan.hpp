// Precomputed transform plans shared by every FFT execution kernel.
//
// A power-of-two transform is factored as an optional twiddle-free radix-2
// stage (when log2(n) is odd) followed by radix-4 stages -- the classic
// fused form of two radix-2 levels with 3 complex multiplies per 4-point
// butterfly instead of 4.  Because a radix-4 stage is algebraically two
// consecutive radix-2 stages, the input permutation stays the plain base-2
// bit reversal.
//
// A length n = r * 2^k with odd r in [3, 15] is a mixed-radix plan: one
// odd-factor pass over r power-of-two sub-transforms that run through the
// power-of-two kernels unchanged.  No other length is planned (see
// is_smooth_length in fft/fft.hpp).
//
// Twiddles are stored per stage in structure-of-arrays layout (w1/w2/w3,
// indexed by the butterfly offset k) so vector kernels load them with
// contiguous unit-stride reads instead of the strided `tw[k * step]` walk
// of the old single-table radix-2 code.
//
// Plans are immutable after construction and cached for the process
// lifetime (see fft.cpp); kernels only ever read them, which is what makes
// backend switching safe while no transform is in flight.
#ifndef BISMO_FFT_KERNELS_PLAN_HPP
#define BISMO_FFT_KERNELS_PLAN_HPP

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bismo::fft_detail {

/// One radix-4 stage: combines four length-`q` sub-DFTs into length `4q`.
/// For butterfly offset k in [0, q), with W = exp(-2*pi*i / (4q)):
///   w1[k] = W^k, w2[k] = W^2k, w3[k] = W^3k  (forward; kernels conjugate
/// on the fly for inverse transforms).
struct Pow2Stage {
  std::size_t q = 0;
  std::vector<std::complex<double>> w1;
  std::vector<std::complex<double>> w2;
  std::vector<std::complex<double>> w3;
};

/// Full plan for a power-of-two length n: base-2 bit-reversal permutation,
/// an optional leading radix-2 stage (log2(n) odd), then radix-4 stages in
/// increasing-q order.
struct Pow2Plan {
  std::size_t n = 0;
  bool leading_radix2 = false;
  std::vector<std::uint32_t> bitrev;
  std::vector<Pow2Stage> stages;
};

/// Descriptor of one fused column pass (FftKernel::pow2_cols_fused): an
/// out-of-place lock-step column transform whose input permutation,
/// optional cotangent seeding, and output epilogue are folded into the
/// first and last butterfly stages, so the pass touches each grid exactly
/// once instead of round-tripping through memory between stages.  A
/// mixed-radix column pass (Fft1dPlan::transform_columns_fused) folds the
/// same input side into its digit-reversing copy and the same epilogue
/// into the odd pass's stores (FftKernel::mixed_odd).
///
/// Input (folded into the first stage, which reads `src` rows through the
/// bit-reversal permutation and writes `dst`):
///   * `src`       -- the gathered input grid (never modified; must not
///                    alias the destination).
///   * `row_nonzero` -- optional per-row flags (length n): rows flagged 0
///                    are treated as exactly zero and never read, so a
///                    band-sparse spectrum needs only its occupied rows
///                    initialized.  Null means every row is read.
///   * `seed`/`seed_scale` -- optional cotangent seed: the logical input
///                    of row j, column c becomes
///                    seed_scale * seed[j * width + c] * src(j, c),
///                    computed on the fly during the first-stage loads
///                    (the adjoint pass's seed grid never materializes).
///
/// Epilogue (folded into the final butterfly stage, applied to each
/// output y in store order):
///   * `scale`     -- y *= scale (1.0 = identity, bitwise).
///   * `norm_acc`/`norm_weight` -- norm_acc[i] += norm_weight * |y_i|^2
///                    (the per-scenario intensity accumulation).
/// Real-valued arrays (`seed`, `norm_acc`) are dense with row pitch
/// `width`.
struct ColsFusion {
  const std::complex<double>* src = nullptr;
  const std::uint8_t* row_nonzero = nullptr;
  const double* seed = nullptr;
  double seed_scale = 1.0;
  double scale = 1.0;
  double* norm_acc = nullptr;
  double norm_weight = 0.0;
};

/// Mixed-radix plan for n = r * m with odd r in [3, 15] and m = 2^k
/// (m may be 1), decimated in time over the odd factor.  With input index
/// n1 + r*n2 and output index k1*m + k2 (n1, k1 < r; n2, k2 < m):
///   X[k1*m + k2] = sum_{n1} W_r^{n1*k1} W_n^{n1*k2} Z_{n1}[k2],
///   Z_{n1}[k2]   = sum_{n2} W_m^{n2*k2} x[n1 + r*n2].
/// A transform runs in three steps:
///   1. the digit reversal moves input n1 + r*n2 to position n1*m + n2
///      (in place over grid rows as the swap sequence `swaps`), so each
///      Z_{n1}'s input is a contiguous sub-block of length m;
///   2. the power-of-two kernels transform the r sub-blocks (`sub`);
///   3. the odd pass (FftKernel::mixed_odd) multiplies Z_{n1}[k2] by the
///      twiddle `tw[n1*m + k2]` = W_n^{n1*k2} and takes the length-r DFT
///      over n1, storing X in natural order in place.
/// The length-r DFT pairs inputs p and r-p: with s_p = t_p + t_{r-p},
/// d_p = t_p - t_{r-p} and h = (r-1)/2, output k in [1, h] is
///   a_k = t_0 + sum_p cos_pk * s_p,  b_k = sum_p sin_pk * d_p,
///   X_k = a_k - i*b_k,  X_{r-k} = a_k + i*b_k   (forward; inverse flips i),
/// with `cosr[(p-1)*h + (k-1)]` = cos(2*pi*p*k/r) and `sinr` likewise.
struct MixedPlan {
  std::size_t n = 0;
  std::size_t r = 0;
  std::size_t m = 0;
  const Pow2Plan* sub = nullptr;  // length m
  std::vector<std::complex<double>> tw;  // length n, forward sign
  std::vector<double> cosr;              // h * h
  std::vector<double> sinr;              // h * h
  std::vector<std::uint32_t> swaps;      // (a, b) pairs, step 1 in place
};

}  // namespace bismo::fft_detail

#endif  // BISMO_FFT_KERNELS_PLAN_HPP

// bismo-lint: no-alloc
// AVX2+FMA kernel: the scalar algorithms executed 2 complex (4 doubles)
// per vector, with FMA butterflies, SoA twiddle loads, and a vectorized
// double-precision exp for the activation paths.
//
// This translation unit is the only one compiled with -mavx2 -mfma (see
// CMakeLists.txt); everything else in the library stays at baseline flags,
// and the registry only hands out this kernel when the CPU reports AVX2 at
// runtime, so the binary remains runnable on non-AVX2 machines.
#include "fft/kernels/kernel.hpp"

#if defined(BISMO_FFT_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

namespace bismo::fft {
namespace {

using fft_detail::Pow2Plan;
using fft_detail::Pow2Stage;

// ---- complex helpers (2 complex doubles per __m256d, re/im interleaved) ----

/// x * w elementwise over 2 complex lanes.
inline __m256d cmul2(__m256d x, __m256d w) {
  const __m256d xr = _mm256_movedup_pd(x);        // [ar ar ...]
  const __m256d xi = _mm256_permute_pd(x, 0xF);   // [ai ai ...]
  const __m256d ws = _mm256_permute_pd(w, 0x5);   // [wi wr ...]
  return _mm256_fmaddsub_pd(xr, w, _mm256_mul_pd(xi, ws));
}

/// x * conj(w) elementwise over 2 complex lanes.
inline __m256d cmul2_conj(__m256d x, __m256d w) {
  const __m256d xr = _mm256_movedup_pd(x);
  const __m256d xi = _mm256_permute_pd(x, 0xF);
  const __m256d ws = _mm256_permute_pd(w, 0x5);
  return _mm256_fmsubadd_pd(xi, ws, _mm256_mul_pd(xr, w));
}

/// Sign masks: negate the imaginary (odd) or real (even) slots.
inline __m256d neg_odd_mask() {
  return _mm256_castsi256_pd(_mm256_set_epi64x(
      static_cast<long long>(0x8000000000000000ULL), 0,
      static_cast<long long>(0x8000000000000000ULL), 0));
}
inline __m256d neg_even_mask() {
  return _mm256_castsi256_pd(_mm256_set_epi64x(
      0, static_cast<long long>(0x8000000000000000ULL), 0,
      static_cast<long long>(0x8000000000000000ULL)));
}

// ---- power-of-two transform ------------------------------------------------

void bit_reverse(const Pow2Plan& plan, std::complex<double>* x) {
  const std::size_t n = plan.n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) std::swap(x[i], x[j]);
  }
}

/// Twiddle-free radix-2 stage over adjacent pairs: [a, b] -> [a+b, a-b].
/// The difference is built as swap(v) - v so its high lane carries a - b
/// (the low lane's b - a is discarded by the blend).
void stage_radix2_leading(double* d, std::size_t n) {
  for (std::size_t b = 0; b < 2 * n; b += 4) {
    const __m256d v = _mm256_loadu_pd(d + b);
    const __m256d sw = _mm256_permute2f128_pd(v, v, 0x01);
    const __m256d s = _mm256_add_pd(v, sw);
    const __m256d f = _mm256_sub_pd(sw, v);
    _mm256_storeu_pd(d + b, _mm256_blend_pd(s, f, 0xC));
  }
}

/// First radix-4 stage when q == 1 (all twiddles unity): one block of 4
/// contiguous complex values per iteration.
template <bool kInv>
void stage_radix4_q1(double* d, std::size_t n) {
  const __m256d mask = kInv ? neg_even_mask() : neg_odd_mask();
  for (std::size_t b = 0; b < 2 * n; b += 8) {
    const __m256d v01 = _mm256_loadu_pd(d + b);
    const __m256d v23 = _mm256_loadu_pd(d + b + 4);
    const __m256d s01 = _mm256_permute2f128_pd(v01, v01, 0x01);
    const __m256d s23 = _mm256_permute2f128_pd(v23, v23, 0x01);
    // ab = [x0+x1, x0-x1], cd = [x2+x3, x2-x3]; the differences are built
    // as swap(v) - v so the blended high lane carries x0-x1 / x2-x3.
    const __m256d ab = _mm256_blend_pd(_mm256_add_pd(v01, s01),
                                       _mm256_sub_pd(s01, v01), 0xC);
    const __m256d cd = _mm256_blend_pd(_mm256_add_pd(v23, s23),
                                       _mm256_sub_pd(s23, v23), 0xC);
    // Apply -i (forward) / +i (inverse) to the high lane (x2-x3 slot):
    // keep lane 0, swap re/im in lane 1, then flip one sign.
    const __m256d cd4 =
        _mm256_xor_pd(_mm256_permute_pd(cd, 0x6),
                      _mm256_blend_pd(_mm256_setzero_pd(), mask, 0xC));
    _mm256_storeu_pd(d + b, _mm256_add_pd(ab, cd4));
    _mm256_storeu_pd(d + b + 4, _mm256_sub_pd(ab, cd4));
  }
}

/// General radix-4 stage (q >= 2, q even): two butterflies per iteration.
template <bool kInv>
void stage_radix4(const Pow2Stage& st, double* d, std::size_t n) {
  const std::size_t q = st.q;
  const auto* w1 = reinterpret_cast<const double*>(st.w1.data());
  const auto* w2 = reinterpret_cast<const double*>(st.w2.data());
  const auto* w3 = reinterpret_cast<const double*>(st.w3.data());
  const __m256d mask = kInv ? neg_even_mask() : neg_odd_mask();
  for (std::size_t base = 0; base < n; base += 4 * q) {
    for (std::size_t k = 0; k < q; k += 2) {
      const std::size_t i0 = 2 * (base + k);
      const std::size_t i1 = i0 + 2 * q;
      const std::size_t i2 = i1 + 2 * q;
      const std::size_t i3 = i2 + 2 * q;
      const __m256d x0 = _mm256_loadu_pd(d + i0);
      const __m256d x1 = _mm256_loadu_pd(d + i1);
      const __m256d x2 = _mm256_loadu_pd(d + i2);
      const __m256d x3 = _mm256_loadu_pd(d + i3);
      const __m256d W1 = _mm256_loadu_pd(w1 + 2 * k);
      const __m256d W2 = _mm256_loadu_pd(w2 + 2 * k);
      const __m256d W3 = _mm256_loadu_pd(w3 + 2 * k);
      const __m256d t1 = kInv ? cmul2_conj(x1, W2) : cmul2(x1, W2);
      const __m256d t2 = kInv ? cmul2_conj(x2, W1) : cmul2(x2, W1);
      const __m256d t3 = kInv ? cmul2_conj(x3, W3) : cmul2(x3, W3);
      const __m256d a = _mm256_add_pd(x0, t1);
      const __m256d b = _mm256_sub_pd(x0, t1);
      const __m256d c = _mm256_add_pd(t2, t3);
      const __m256d dd = _mm256_sub_pd(t2, t3);
      // -i*dd (forward) / +i*dd (inverse): swap re/im, flip one sign.
      const __m256d d4 = _mm256_xor_pd(_mm256_permute_pd(dd, 0x5), mask);
      _mm256_storeu_pd(d + i0, _mm256_add_pd(a, c));
      _mm256_storeu_pd(d + i1, _mm256_add_pd(b, d4));
      _mm256_storeu_pd(d + i2, _mm256_sub_pd(a, c));
      _mm256_storeu_pd(d + i3, _mm256_sub_pd(b, d4));
    }
  }
}

template <bool kInv>
void pow2_one(const Pow2Plan& plan, std::complex<double>* x) {
  bit_reverse(plan, x);
  auto* d = reinterpret_cast<double*>(x);
  if (plan.leading_radix2) stage_radix2_leading(d, plan.n);
  for (const Pow2Stage& st : plan.stages) {
    if (st.q == 1) {
      stage_radix4_q1<kInv>(d, plan.n);
    } else {
      stage_radix4<kInv>(st, d, plan.n);
    }
  }
}

void pow2_many(const Pow2Plan& plan, std::complex<double>* data,
               std::size_t count, std::size_t stride, bool inverse) {
  if (plan.n <= 1) return;
  if (inverse) {
    for (std::size_t r = 0; r < count; ++r) {
      pow2_one<true>(plan, data + r * stride);
    }
  } else {
    for (std::size_t r = 0; r < count; ++r) {
      pow2_one<false>(plan, data + r * stride);
    }
  }
}

/// In-place twiddle-free radix-2 column stage over adjacent row pairs.
void cols_stage_radix2(double* base_d, std::size_t n, std::size_t dstride,
                       std::size_t dwidth) {
  for (std::size_t r = 0; r < n; r += 2) {
    double* u = base_d + r * dstride;
    double* v = u + dstride;
    std::size_t c = 0;
    for (; c + 4 <= dwidth; c += 4) {
      const __m256d a = _mm256_loadu_pd(u + c);
      const __m256d b = _mm256_loadu_pd(v + c);
      _mm256_storeu_pd(u + c, _mm256_add_pd(a, b));
      _mm256_storeu_pd(v + c, _mm256_sub_pd(a, b));
    }
    for (; c < dwidth; ++c) {
      const double a = u[c];
      const double b = v[c];
      u[c] = a + b;
      v[c] = a - b;
    }
  }
}

/// In-place radix-4 column stage with broadcast twiddles: shared by the
/// staged pass and the middle stages of the fused pass, so both run
/// identical arithmetic.
template <bool kInv>
void cols_stage_radix4(const Pow2Stage& st, double* base_d, std::size_t n,
                       std::size_t dstride, std::size_t dwidth) {
  const double cs = kInv ? -1.0 : 1.0;
  const __m256d mask = kInv ? neg_even_mask() : neg_odd_mask();
  const std::size_t q = st.q;
  for (std::size_t base = 0; base < n; base += 4 * q) {
    for (std::size_t k = 0; k < q; ++k) {
      const __m256d W1 = _mm256_setr_pd(
          st.w1[k].real(), cs * st.w1[k].imag(), st.w1[k].real(),
          cs * st.w1[k].imag());
      const __m256d W2 = _mm256_setr_pd(
          st.w2[k].real(), cs * st.w2[k].imag(), st.w2[k].real(),
          cs * st.w2[k].imag());
      const __m256d W3 = _mm256_setr_pd(
          st.w3[k].real(), cs * st.w3[k].imag(), st.w3[k].real(),
          cs * st.w3[k].imag());
      double* r0 = base_d + (base + k) * dstride;
      double* r1 = r0 + q * dstride;
      double* r2 = r1 + q * dstride;
      double* r3 = r2 + q * dstride;
      std::size_t c = 0;
      for (; c + 4 <= dwidth; c += 4) {
        const __m256d x0 = _mm256_loadu_pd(r0 + c);
        const __m256d t1 = cmul2(_mm256_loadu_pd(r1 + c), W2);
        const __m256d t2 = cmul2(_mm256_loadu_pd(r2 + c), W1);
        const __m256d t3 = cmul2(_mm256_loadu_pd(r3 + c), W3);
        const __m256d a = _mm256_add_pd(x0, t1);
        const __m256d b = _mm256_sub_pd(x0, t1);
        const __m256d cc = _mm256_add_pd(t2, t3);
        const __m256d dd = _mm256_sub_pd(t2, t3);
        const __m256d d4 = _mm256_xor_pd(_mm256_permute_pd(dd, 0x5), mask);
        _mm256_storeu_pd(r0 + c, _mm256_add_pd(a, cc));
        _mm256_storeu_pd(r1 + c, _mm256_add_pd(b, d4));
        _mm256_storeu_pd(r2 + c, _mm256_sub_pd(a, cc));
        _mm256_storeu_pd(r3 + c, _mm256_sub_pd(b, d4));
      }
      for (; c < dwidth; c += 2) {
        const double w1r = st.w1[k].real();
        const double w1i = cs * st.w1[k].imag();
        const double w2r = st.w2[k].real();
        const double w2i = cs * st.w2[k].imag();
        const double w3r = st.w3[k].real();
        const double w3i = cs * st.w3[k].imag();
        const double t1r = r1[c] * w2r - r1[c + 1] * w2i;
        const double t1i = r1[c] * w2i + r1[c + 1] * w2r;
        const double t2r = r2[c] * w1r - r2[c + 1] * w1i;
        const double t2i = r2[c] * w1i + r2[c + 1] * w1r;
        const double t3r = r3[c] * w3r - r3[c + 1] * w3i;
        const double t3i = r3[c] * w3i + r3[c + 1] * w3r;
        const double ar = r0[c] + t1r;
        const double ai = r0[c + 1] + t1i;
        const double br = r0[c] - t1r;
        const double bi = r0[c + 1] - t1i;
        const double cr = t2r + t3r;
        const double ci = t2i + t3i;
        const double d4r = cs * (t2i - t3i);
        const double d4i = -cs * (t2r - t3r);
        r0[c] = ar + cr;
        r0[c + 1] = ai + ci;
        r1[c] = br + d4r;
        r1[c + 1] = bi + d4i;
        r2[c] = ar - cr;
        r2[c + 1] = ai - ci;
        r3[c] = br - d4r;
        r3[c + 1] = bi - d4i;
      }
    }
  }
}

/// Lock-step column transform: butterflies sweep whole rows with broadcast
/// twiddles, so every memory access is unit-stride and 2-complex wide.
template <bool kInv>
void pow2_cols_impl(const Pow2Plan& plan, std::complex<double>* data,
                    std::size_t width, std::size_t stride) {
  const std::size_t n = plan.n;
  // Bit reversal as whole-row swaps.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) {
      std::swap_ranges(data + i * stride, data + i * stride + width,
                       data + j * stride);
    }
  }
  auto* base_d = reinterpret_cast<double*>(data);
  const std::size_t dstride = 2 * stride;
  const std::size_t dwidth = 2 * width;
  if (plan.leading_radix2) {
    cols_stage_radix2(base_d, n, dstride, dwidth);
  }
  for (const Pow2Stage& st : plan.stages) {
    cols_stage_radix4<kInv>(st, base_d, n, dstride, dwidth);
  }
}

void pow2_cols(const Pow2Plan& plan, std::complex<double>* data,
               std::size_t width, std::size_t stride, bool inverse) {
  if (plan.n <= 1 || width == 0) return;
  if (inverse) {
    pow2_cols_impl<true>(plan, data, width, stride);
  } else {
    pow2_cols_impl<false>(plan, data, width, stride);
  }
}

// ---- fused column pass -----------------------------------------------------
//
// First stage reads the source grid through the bit reversal (rows
// flagged zero never read, the optional cotangent seed folded into the
// loads); middle stages are the shared in-place helpers above; the last
// stage scales and accumulates weighted norms as it stores.  See the
// scalar kernel for the reference semantics.

inline const double* fused_row(const fft_detail::ColsFusion& f, std::size_t j,
                               std::size_t dstride) {
  if (f.row_nonzero && !f.row_nonzero[j]) return nullptr;
  return reinterpret_cast<const double*>(f.src) + j * dstride;
}

/// One 2-complex chunk of a gathered source row: zero when the row is
/// flagged zero, seeded with s * dldi broadcast per complex otherwise.
template <bool kSeed>
inline __m256d fused_load(const double* row, const double* seed_row,
                          __m256d vss, std::size_t c) {
  if (!row) return _mm256_setzero_pd();
  const __m256d x = _mm256_loadu_pd(row + c);
  if (!kSeed) return x;
  const __m128d dl = _mm_loadu_pd(seed_row + c / 2);
  const __m256d f = _mm256_mul_pd(
      vss, _mm256_permute4x64_pd(_mm256_castpd128_pd256(dl), 0x50));
  return _mm256_mul_pd(f, x);
}

/// Scalar-tail load of one double of a gathered source row.
template <bool kSeed>
inline double fused_load_1(const double* row, const double* seed_row,
                           double ss, std::size_t c) {
  if (!row) return 0.0;
  const double x = row[c];
  if (!kSeed) return x;
  return (ss * seed_row[c / 2]) * x;
}

/// Gathered leading radix-2 stage.
template <bool kSeed>
void fused_stage_r2(const Pow2Plan& plan, const fft_detail::ColsFusion& f,
                    double* out, std::size_t dwidth, std::size_t dstride) {
  const std::size_t n = plan.n;
  const double ss = f.seed_scale;
  const __m256d vss = _mm256_set1_pd(ss);
  for (std::size_t r = 0; r < n; r += 2) {
    const std::size_t j0 = plan.bitrev[r];
    const std::size_t j1 = plan.bitrev[r + 1];
    const double* u = fused_row(f, j0, dstride);
    const double* v = fused_row(f, j1, dstride);
    const double* su = kSeed ? f.seed + j0 * (dwidth / 2) : nullptr;
    const double* sv = kSeed ? f.seed + j1 * (dwidth / 2) : nullptr;
    double* o0 = out + r * dstride;
    double* o1 = o0 + dstride;
    std::size_t c = 0;
    for (; c + 4 <= dwidth; c += 4) {
      const __m256d a = fused_load<kSeed>(u, su, vss, c);
      const __m256d b = fused_load<kSeed>(v, sv, vss, c);
      _mm256_storeu_pd(o0 + c, _mm256_add_pd(a, b));
      _mm256_storeu_pd(o1 + c, _mm256_sub_pd(a, b));
    }
    for (; c < dwidth; ++c) {
      const double a = fused_load_1<kSeed>(u, su, ss, c);
      const double b = fused_load_1<kSeed>(v, sv, ss, c);
      o0[c] = a + b;
      o1[c] = a - b;
    }
  }
}

/// Gathered first radix-4 stage (q == 1, unity twiddles).
template <bool kInv, bool kSeed>
void fused_stage_r4_first(const Pow2Plan& plan, const fft_detail::ColsFusion& f,
                          double* out, std::size_t dwidth,
                          std::size_t dstride) {
  const std::size_t n = plan.n;
  const double ss = f.seed_scale;
  const __m256d vss = _mm256_set1_pd(ss);
  const double cs = kInv ? -1.0 : 1.0;
  const __m256d mask = kInv ? neg_even_mask() : neg_odd_mask();
  for (std::size_t b = 0; b < n; b += 4) {
    const double* x[4];
    const double* sx[4] = {nullptr, nullptr, nullptr, nullptr};
    for (int t = 0; t < 4; ++t) {
      const std::size_t j = plan.bitrev[b + t];
      x[t] = fused_row(f, j, dstride);
      if (kSeed) sx[t] = f.seed + j * (dwidth / 2);
    }
    double* o0 = out + b * dstride;
    double* o1 = o0 + dstride;
    double* o2 = o1 + dstride;
    double* o3 = o2 + dstride;
    std::size_t c = 0;
    for (; c + 4 <= dwidth; c += 4) {
      const __m256d x0 = fused_load<kSeed>(x[0], sx[0], vss, c);
      const __m256d x1 = fused_load<kSeed>(x[1], sx[1], vss, c);
      const __m256d x2 = fused_load<kSeed>(x[2], sx[2], vss, c);
      const __m256d x3 = fused_load<kSeed>(x[3], sx[3], vss, c);
      const __m256d a = _mm256_add_pd(x0, x1);
      const __m256d bb = _mm256_sub_pd(x0, x1);
      const __m256d cc = _mm256_add_pd(x2, x3);
      const __m256d dd = _mm256_sub_pd(x2, x3);
      const __m256d d4 = _mm256_xor_pd(_mm256_permute_pd(dd, 0x5), mask);
      _mm256_storeu_pd(o0 + c, _mm256_add_pd(a, cc));
      _mm256_storeu_pd(o1 + c, _mm256_add_pd(bb, d4));
      _mm256_storeu_pd(o2 + c, _mm256_sub_pd(a, cc));
      _mm256_storeu_pd(o3 + c, _mm256_sub_pd(bb, d4));
    }
    for (; c < dwidth; c += 2) {
      double xr[4], xi[4];
      for (int t = 0; t < 4; ++t) {
        xr[t] = fused_load_1<kSeed>(x[t], sx[t], ss, c);
        xi[t] = fused_load_1<kSeed>(x[t], sx[t], ss, c + 1);
      }
      const double ar = xr[0] + xr[1];
      const double ai = xi[0] + xi[1];
      const double br = xr[0] - xr[1];
      const double bi = xi[0] - xi[1];
      const double cr = xr[2] + xr[3];
      const double ci = xi[2] + xi[3];
      const double d4r = cs * (xi[2] - xi[3]);
      const double d4i = -cs * (xr[2] - xr[3]);
      o0[c] = ar + cr;
      o0[c + 1] = ai + ci;
      o1[c] = br + d4r;
      o1[c + 1] = bi + d4i;
      o2[c] = ar - cr;
      o2[c + 1] = ai - ci;
      o3[c] = br - d4r;
      o3[c + 1] = bi - d4i;
    }
  }
}

/// Per-row epilogue on one 2-complex chunk y (already scaled): kNorm
/// accumulates w * |y|^2 into acc_row.  Norms of the two complex lanes
/// are built with the same mul/hadd arithmetic as accumulate_norm.
template <bool kNorm>
inline void fused_epilogue2(__m256d y, double* acc_row, std::size_t c,
                            __m128d vw) {
  if (!kNorm) return;
  const __m256d p = _mm256_mul_pd(y, y);
  const __m256d h = _mm256_hadd_pd(p, p);
  const __m128d norms = _mm_unpacklo_pd(_mm256_castpd256_pd128(h),
                                        _mm256_extractf128_pd(h, 1));
  _mm_storeu_pd(acc_row + c / 2,
                _mm_fmadd_pd(vw, norms, _mm_loadu_pd(acc_row + c / 2)));
}

/// Final radix-4 stage with the scale / weighted-norm epilogue fused
/// into the stores.
template <bool kInv, bool kNorm>
void fused_stage_last(const Pow2Stage& st, const fft_detail::ColsFusion& f,
                      double* base_d, std::size_t n, std::size_t dstride,
                      std::size_t dwidth) {
  const double cs = kInv ? -1.0 : 1.0;
  const __m256d mask = kInv ? neg_even_mask() : neg_odd_mask();
  const std::size_t q = st.q;
  const std::size_t rw = dwidth / 2;  // real-array row pitch
  const double s = f.scale;
  const __m256d vs = _mm256_set1_pd(s);
  const __m128d vw = _mm_set1_pd(f.norm_weight);
  for (std::size_t base = 0; base < n; base += 4 * q) {
    for (std::size_t k = 0; k < q; ++k) {
      const __m256d W1 = _mm256_setr_pd(
          st.w1[k].real(), cs * st.w1[k].imag(), st.w1[k].real(),
          cs * st.w1[k].imag());
      const __m256d W2 = _mm256_setr_pd(
          st.w2[k].real(), cs * st.w2[k].imag(), st.w2[k].real(),
          cs * st.w2[k].imag());
      const __m256d W3 = _mm256_setr_pd(
          st.w3[k].real(), cs * st.w3[k].imag(), st.w3[k].real(),
          cs * st.w3[k].imag());
      const std::size_t row0 = base + k;
      double* r0 = base_d + row0 * dstride;
      double* r1 = r0 + q * dstride;
      double* r2 = r1 + q * dstride;
      double* r3 = r2 + q * dstride;
      double* a0 = kNorm ? f.norm_acc + row0 * rw : nullptr;
      double* a1 = kNorm ? a0 + q * rw : nullptr;
      double* a2 = kNorm ? a1 + q * rw : nullptr;
      double* a3 = kNorm ? a2 + q * rw : nullptr;
      std::size_t c = 0;
      for (; c + 4 <= dwidth; c += 4) {
        const __m256d x0 = _mm256_loadu_pd(r0 + c);
        const __m256d t1 = cmul2(_mm256_loadu_pd(r1 + c), W2);
        const __m256d t2 = cmul2(_mm256_loadu_pd(r2 + c), W1);
        const __m256d t3 = cmul2(_mm256_loadu_pd(r3 + c), W3);
        const __m256d a = _mm256_add_pd(x0, t1);
        const __m256d b = _mm256_sub_pd(x0, t1);
        const __m256d cc = _mm256_add_pd(t2, t3);
        const __m256d dd = _mm256_sub_pd(t2, t3);
        const __m256d d4 = _mm256_xor_pd(_mm256_permute_pd(dd, 0x5), mask);
        const __m256d y0 = _mm256_mul_pd(_mm256_add_pd(a, cc), vs);
        const __m256d y1 = _mm256_mul_pd(_mm256_add_pd(b, d4), vs);
        const __m256d y2 = _mm256_mul_pd(_mm256_sub_pd(a, cc), vs);
        const __m256d y3 = _mm256_mul_pd(_mm256_sub_pd(b, d4), vs);
        _mm256_storeu_pd(r0 + c, y0);
        _mm256_storeu_pd(r1 + c, y1);
        _mm256_storeu_pd(r2 + c, y2);
        _mm256_storeu_pd(r3 + c, y3);
        fused_epilogue2<kNorm>(y0, a0, c, vw);
        fused_epilogue2<kNorm>(y1, a1, c, vw);
        fused_epilogue2<kNorm>(y2, a2, c, vw);
        fused_epilogue2<kNorm>(y3, a3, c, vw);
      }
      for (; c < dwidth; c += 2) {
        const double w1r = st.w1[k].real();
        const double w1i = cs * st.w1[k].imag();
        const double w2r = st.w2[k].real();
        const double w2i = cs * st.w2[k].imag();
        const double w3r = st.w3[k].real();
        const double w3i = cs * st.w3[k].imag();
        const double t1r = r1[c] * w2r - r1[c + 1] * w2i;
        const double t1i = r1[c] * w2i + r1[c + 1] * w2r;
        const double t2r = r2[c] * w1r - r2[c + 1] * w1i;
        const double t2i = r2[c] * w1i + r2[c + 1] * w1r;
        const double t3r = r3[c] * w3r - r3[c + 1] * w3i;
        const double t3i = r3[c] * w3i + r3[c + 1] * w3r;
        const double ar = r0[c] + t1r;
        const double ai = r0[c + 1] + t1i;
        const double br = r0[c] - t1r;
        const double bi = r0[c + 1] - t1i;
        const double cr = t2r + t3r;
        const double ci = t2i + t3i;
        const double d4r = cs * (t2i - t3i);
        const double d4i = -cs * (t2r - t3r);
        const double y0r = (ar + cr) * s;
        const double y0i = (ai + ci) * s;
        const double y1r = (br + d4r) * s;
        const double y1i = (bi + d4i) * s;
        const double y2r = (ar - cr) * s;
        const double y2i = (ai - ci) * s;
        const double y3r = (br - d4r) * s;
        const double y3i = (bi - d4i) * s;
        r0[c] = y0r;
        r0[c + 1] = y0i;
        r1[c] = y1r;
        r1[c + 1] = y1i;
        r2[c] = y2r;
        r2[c + 1] = y2i;
        r3[c] = y3r;
        r3[c + 1] = y3i;
        if (kNorm) {
          const double w = f.norm_weight;
          a0[c / 2] += w * (y0r * y0r + y0i * y0i);
          a1[c / 2] += w * (y1r * y1r + y1i * y1i);
          a2[c / 2] += w * (y2r * y2r + y2i * y2i);
          a3[c / 2] += w * (y3r * y3r + y3i * y3i);
        }
      }
    }
  }
}

template <bool kInv, bool kSeed>
void pow2_cols_fused_impl(const Pow2Plan& plan,
                          const fft_detail::ColsFusion& fusion, double* base_d,
                          std::size_t dwidth, std::size_t dstride) {
  const std::size_t n = plan.n;
  std::size_t first = 0;
  if (plan.leading_radix2) {
    fused_stage_r2<kSeed>(plan, fusion, base_d, dwidth, dstride);
  } else {
    fused_stage_r4_first<kInv, kSeed>(plan, fusion, base_d, dwidth, dstride);
    first = 1;
  }
  const std::size_t last = plan.stages.size() - 1;
  for (std::size_t si = first; si < last; ++si) {
    cols_stage_radix4<kInv>(plan.stages[si], base_d, n, dstride, dwidth);
  }
  const Pow2Stage& st = plan.stages[last];
  if (fusion.norm_acc) {
    fused_stage_last<kInv, true>(st, fusion, base_d, n, dstride, dwidth);
  } else {
    fused_stage_last<kInv, false>(st, fusion, base_d, n, dstride, dwidth);
  }
}

template <bool kInv>
void pow2_cols_fused_dispatch(const Pow2Plan& plan,
                              const fft_detail::ColsFusion& fusion,
                              double* base_d, std::size_t dwidth,
                              std::size_t dstride) {
  if (fusion.seed) {
    pow2_cols_fused_impl<kInv, true>(plan, fusion, base_d, dwidth, dstride);
  } else {
    pow2_cols_fused_impl<kInv, false>(plan, fusion, base_d, dwidth, dstride);
  }
}

void pow2_cols_fused(const Pow2Plan& plan,
                     const fft_detail::ColsFusion& fusion,
                     std::complex<double>* dst, std::size_t width,
                     std::size_t stride, bool inverse) {
  if (width == 0) return;
  auto* base_d = reinterpret_cast<double*>(dst);
  const std::size_t dstride = 2 * stride;
  const std::size_t dwidth = 2 * width;
  if (inverse) {
    pow2_cols_fused_dispatch<true>(plan, fusion, base_d, dwidth, dstride);
  } else {
    pow2_cols_fused_dispatch<false>(plan, fusion, base_d, dwidth, dstride);
  }
}

// ---- mixed-radix odd pass --------------------------------------------------
//
// The length-r DFT runs on 2 complex lanes (__m256d) in the vector body and
// on 1 complex lane (__m128d) in the tails, through the same overloads, so
// every lane gets the same arithmetic.  See the scalar kernel for the
// reference semantics.

inline __m256d vadd(__m256d a, __m256d b) { return _mm256_add_pd(a, b); }
inline __m128d vadd(__m128d a, __m128d b) { return _mm_add_pd(a, b); }
inline __m256d vsub(__m256d a, __m256d b) { return _mm256_sub_pd(a, b); }
inline __m128d vsub(__m128d a, __m128d b) { return _mm_sub_pd(a, b); }

/// c * a + b with a real scalar c broadcast over every slot.
inline __m256d vfmadd(double c, __m256d a, __m256d b) {
  return _mm256_fmadd_pd(_mm256_set1_pd(c), a, b);
}
inline __m128d vfmadd(double c, __m128d a, __m128d b) {
  return _mm_fmadd_pd(_mm_set1_pd(c), a, b);
}

/// x * w (forward) or x * conj(w) (inverse), w one complex per lane.
template <bool kInv>
inline __m256d vtwiddle(__m256d x, __m256d w) {
  return kInv ? cmul2_conj(x, w) : cmul2(x, w);
}
template <bool kInv>
inline __m128d vtwiddle(__m128d x, __m128d w) {
  const __m128d xr = _mm_movedup_pd(x);
  const __m128d xi = _mm_permute_pd(x, 0x3);
  const __m128d ws = _mm_permute_pd(w, 0x1);
  return kInv ? _mm_fmsubadd_pd(xi, ws, _mm_mul_pd(xr, w))
              : _mm_fmaddsub_pd(xr, w, _mm_mul_pd(xi, ws));
}

/// -i*b (forward) or +i*b (inverse): swap re/im, flip one sign.
template <bool kInv>
inline __m256d vrot(__m256d b) {
  const __m256d mask = kInv ? neg_even_mask() : neg_odd_mask();
  return _mm256_xor_pd(_mm256_permute_pd(b, 0x5), mask);
}
template <bool kInv>
inline __m128d vrot(__m128d b) {
  const __m128d mask = kInv ? _mm256_castpd256_pd128(neg_even_mask())
                            : _mm256_castpd256_pd128(neg_odd_mask());
  return _mm_xor_pd(_mm_permute_pd(b, 0x1), mask);
}

inline __m256d vload(const double* p, __m256d /*tag*/) {
  return _mm256_loadu_pd(p);
}
inline __m128d vload(const double* p, __m128d /*tag*/) {
  return _mm_loadu_pd(p);
}
inline void vstore(double* p, __m256d v) { _mm256_storeu_pd(p, v); }
inline void vstore(double* p, __m128d v) { _mm_storeu_pd(p, v); }

/// Length-R DFT of the twiddled lanes x[0..R) in place, in the paired
/// form of fft_detail::MixedPlan.
template <int R, bool kInv, typename V>
inline void odd_dft(V* x, const double* cosr, const double* sinr) {
  constexpr int kH = (R - 1) / 2;
  V sum[kH];
  V dif[kH];
  V y0 = x[0];
  for (int p = 1; p <= kH; ++p) {
    sum[p - 1] = vadd(x[p], x[R - p]);
    dif[p - 1] = vsub(x[p], x[R - p]);
    y0 = vadd(y0, sum[p - 1]);
  }
  V y[R];
  y[0] = y0;
  for (int k = 1; k <= kH; ++k) {
    V a = x[0];
    V b{};
    for (int p = 1; p <= kH; ++p) {
      a = vfmadd(cosr[(p - 1) * kH + (k - 1)], sum[p - 1], a);
      b = vfmadd(sinr[(p - 1) * kH + (k - 1)], dif[p - 1], b);
    }
    const V ib = vrot<kInv>(b);
    y[k] = vadd(a, ib);
    y[R - k] = vsub(a, ib);
  }
  for (int k = 0; k < R; ++k) x[k] = y[k];
}

/// Rows (width = stride = 1, no epilogue): the m points of a sub-block
/// are the lanes, each with its own twiddle from plan.tw.
template <int R, bool kInv, typename V>
inline void odd_rows_at(const fft_detail::MixedPlan& plan, double* d,
                        std::size_t k2) {
  const std::size_t m = plan.m;
  const auto* tw = reinterpret_cast<const double*>(plan.tw.data());
  V x[R];
  x[0] = vload(d + 2 * k2, V{});
  for (int n1 = 1; n1 < R; ++n1) {
    const std::size_t at = 2 * (n1 * m + k2);
    x[n1] = vtwiddle<kInv>(vload(d + at, V{}), vload(tw + at, V{}));
  }
  odd_dft<R, kInv>(x, plan.cosr.data(), plan.sinr.data());
  for (int k1 = 0; k1 < R; ++k1) vstore(d + 2 * (k1 * m + k2), x[k1]);
}

template <int R, bool kInv>
void odd_rows(const fft_detail::MixedPlan& plan, double* d) {
  std::size_t k2 = 0;
  for (; k2 + 2 <= plan.m; k2 += 2) odd_rows_at<R, kInv, __m256d>(plan, d, k2);
  for (; k2 < plan.m; ++k2) odd_rows_at<R, kInv, __m128d>(plan, d, k2);
}

/// Epilogue of one 1-complex tail store (already scaled): the scalar
/// counterpart of fused_epilogue2.
template <bool kNorm>
inline void odd_epilogue1(__m128d y, double* acc, double w) {
  if (!kNorm) return;
  const __m128d p = _mm_mul_pd(y, y);
  *acc += w * _mm_cvtsd_f64(_mm_hadd_pd(p, p));
}

/// Columns: whole grid rows are the lanes; the twiddle of (n1, k2) is
/// broadcast along the row.  kEpi applies the scale and kNorm the
/// norm_acc accumulation, as in fused_stage_last.
template <int R, bool kInv, bool kEpi, bool kNorm>
void odd_cols(const fft_detail::MixedPlan& plan, double* d,
              std::size_t width, std::size_t stride,
              const fft_detail::ColsFusion* f) {
  const std::size_t m = plan.m;
  const std::size_t dwidth = 2 * width;
  const double s = kEpi ? f->scale : 1.0;
  const __m256d vs = _mm256_set1_pd(s);
  const __m128d vs1 = _mm_set1_pd(s);
  const double w = kNorm ? f->norm_weight : 0.0;
  const __m128d vw = _mm_set1_pd(w);
  for (std::size_t k2 = 0; k2 < m; ++k2) {
    double* row[R];
    __m256d tw2[R];
    __m128d tw1[R];
    for (int n1 = 0; n1 < R; ++n1) {
      row[n1] = d + 2 * (n1 * m + k2) * stride;
      const std::complex<double> t = plan.tw[n1 * m + k2];
      tw2[n1] = _mm256_setr_pd(t.real(), t.imag(), t.real(), t.imag());
      tw1[n1] = _mm_setr_pd(t.real(), t.imag());
    }
    std::size_t c = 0;
    for (; c + 4 <= dwidth; c += 4) {
      __m256d x[R];
      x[0] = _mm256_loadu_pd(row[0] + c);
      for (int n1 = 1; n1 < R; ++n1) {
        x[n1] = vtwiddle<kInv>(_mm256_loadu_pd(row[n1] + c), tw2[n1]);
      }
      odd_dft<R, kInv>(x, plan.cosr.data(), plan.sinr.data());
      for (int k1 = 0; k1 < R; ++k1) {
        const __m256d y = kEpi ? _mm256_mul_pd(x[k1], vs) : x[k1];
        _mm256_storeu_pd(row[k1] + c, y);
        const std::size_t at = (k1 * m + k2) * width;
        fused_epilogue2<kNorm>(y, kNorm ? f->norm_acc + at : nullptr, c, vw);
      }
    }
    for (; c < dwidth; c += 2) {
      __m128d x[R];
      x[0] = _mm_loadu_pd(row[0] + c);
      for (int n1 = 1; n1 < R; ++n1) {
        x[n1] = vtwiddle<kInv>(_mm_loadu_pd(row[n1] + c), tw1[n1]);
      }
      odd_dft<R, kInv>(x, plan.cosr.data(), plan.sinr.data());
      for (int k1 = 0; k1 < R; ++k1) {
        const __m128d y = kEpi ? _mm_mul_pd(x[k1], vs1) : x[k1];
        _mm_storeu_pd(row[k1] + c, y);
        const std::size_t at = (k1 * m + k2) * width + c / 2;
        odd_epilogue1<kNorm>(y, kNorm ? f->norm_acc + at : nullptr, w);
      }
    }
  }
}

template <int R, bool kInv>
void mixed_odd_r(const fft_detail::MixedPlan& plan, double* d,
                 std::size_t width, std::size_t stride,
                 const fft_detail::ColsFusion* f) {
  if (f == nullptr) {
    if (width == 1 && stride == 1) {
      odd_rows<R, kInv>(plan, d);
    } else {
      odd_cols<R, kInv, false, false>(plan, d, width, stride, f);
    }
  } else if (f->norm_acc != nullptr) {
    odd_cols<R, kInv, true, true>(plan, d, width, stride, f);
  } else {
    odd_cols<R, kInv, true, false>(plan, d, width, stride, f);
  }
}

template <bool kInv>
void mixed_odd_dispatch(const fft_detail::MixedPlan& plan, double* d,
                        std::size_t width, std::size_t stride,
                        const fft_detail::ColsFusion* f) {
  switch (plan.r) {
    case 3: return mixed_odd_r<3, kInv>(plan, d, width, stride, f);
    case 5: return mixed_odd_r<5, kInv>(plan, d, width, stride, f);
    case 7: return mixed_odd_r<7, kInv>(plan, d, width, stride, f);
    case 9: return mixed_odd_r<9, kInv>(plan, d, width, stride, f);
    case 11: return mixed_odd_r<11, kInv>(plan, d, width, stride, f);
    case 13: return mixed_odd_r<13, kInv>(plan, d, width, stride, f);
    default: return mixed_odd_r<15, kInv>(plan, d, width, stride, f);  // 15
  }
}

void mixed_odd(const fft_detail::MixedPlan& plan, std::complex<double>* data,
               std::size_t width, std::size_t stride, bool inverse,
               const fft_detail::ColsFusion* epilogue) {
  if (width == 0) return;
  auto* d = reinterpret_cast<double*>(data);
  if (inverse) {
    mixed_odd_dispatch<true>(plan, d, width, stride, epilogue);
  } else {
    mixed_odd_dispatch<false>(plan, d, width, stride, epilogue);
  }
}

// ---- elementwise hot loops -------------------------------------------------

void scale(std::complex<double>* x, std::size_t n, double s) {
  auto* d = reinterpret_cast<double*>(x);
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= 2 * n; i += 4) {
    _mm256_storeu_pd(d + i, _mm256_mul_pd(_mm256_loadu_pd(d + i), vs));
  }
  for (; i < 2 * n; ++i) d[i] *= s;
}

void cmul(std::complex<double>* dst, const std::complex<double>* a,
          const std::complex<double>* b, std::size_t n) {
  auto* o = reinterpret_cast<double*>(dst);
  const auto* p = reinterpret_cast<const double*>(a);
  const auto* q = reinterpret_cast<const double*>(b);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm256_storeu_pd(o + 2 * i, cmul2(_mm256_loadu_pd(p + 2 * i),
                                      _mm256_loadu_pd(q + 2 * i)));
  }
  for (; i < n; ++i) {
    const double ar = p[2 * i];
    const double ai = p[2 * i + 1];
    const double br = q[2 * i];
    const double bi = q[2 * i + 1];
    o[2 * i] = ar * br - ai * bi;
    o[2 * i + 1] = ar * bi + ai * br;
  }
}

void cmul_inplace(std::complex<double>* dst, const std::complex<double>* b,
                  std::size_t n, bool conj_b) {
  auto* o = reinterpret_cast<double*>(dst);
  const auto* q = reinterpret_cast<const double*>(b);
  std::size_t i = 0;
  if (conj_b) {
    for (; i + 2 <= n; i += 2) {
      _mm256_storeu_pd(o + 2 * i, cmul2_conj(_mm256_loadu_pd(o + 2 * i),
                                             _mm256_loadu_pd(q + 2 * i)));
    }
  } else {
    for (; i + 2 <= n; i += 2) {
      _mm256_storeu_pd(o + 2 * i, cmul2(_mm256_loadu_pd(o + 2 * i),
                                        _mm256_loadu_pd(q + 2 * i)));
    }
  }
  const double cs = conj_b ? -1.0 : 1.0;
  for (; i < n; ++i) {
    const double ar = o[2 * i];
    const double ai = o[2 * i + 1];
    const double br = q[2 * i];
    const double bi = cs * q[2 * i + 1];
    o[2 * i] = ar * br - ai * bi;
    o[2 * i + 1] = ar * bi + ai * br;
  }
}

void caxpy(std::complex<double>* dst, const std::complex<double>* a,
           std::size_t n, double s) {
  auto* o = reinterpret_cast<double*>(dst);
  const auto* p = reinterpret_cast<const double*>(a);
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= 2 * n; i += 4) {
    _mm256_storeu_pd(
        o + i, _mm256_fmadd_pd(vs, _mm256_loadu_pd(p + i),
                               _mm256_loadu_pd(o + i)));
  }
  for (; i < 2 * n; ++i) o[i] += s * p[i];
}

void cmul_conj_axpy(std::complex<double>* dst, const std::complex<double>* a,
                    const std::complex<double>* b, std::size_t n, double s) {
  auto* o = reinterpret_cast<double*>(dst);
  const auto* p = reinterpret_cast<const double*>(a);
  const auto* q = reinterpret_cast<const double*>(b);
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d prod = cmul2_conj(_mm256_loadu_pd(p + 2 * i),
                                    _mm256_loadu_pd(q + 2 * i));
    _mm256_storeu_pd(
        o + 2 * i,
        _mm256_fmadd_pd(vs, prod, _mm256_loadu_pd(o + 2 * i)));
  }
  for (; i < n; ++i) {
    const double ar = p[2 * i];
    const double ai = p[2 * i + 1];
    const double br = q[2 * i];
    const double bi = -q[2 * i + 1];
    o[2 * i] += s * (ar * br - ai * bi);
    o[2 * i + 1] += s * (ar * bi + ai * br);
  }
}

void accumulate_norm(double* acc, const std::complex<double>* a,
                     std::size_t n, double w) {
  const auto* p = reinterpret_cast<const double*>(a);
  const __m256d vw = _mm256_set1_pd(w);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_loadu_pd(p + 2 * i);
    const __m256d vb = _mm256_loadu_pd(p + 2 * i + 4);
    // hadd pairs within lanes -> norms in order [0, 2, 1, 3]; restore.
    const __m256d h = _mm256_hadd_pd(_mm256_mul_pd(va, va),
                                     _mm256_mul_pd(vb, vb));
    const __m256d norms = _mm256_permute4x64_pd(h, 0xD8);
    _mm256_storeu_pd(acc + i,
                     _mm256_fmadd_pd(vw, norms, _mm256_loadu_pd(acc + i)));
  }
  for (; i < n; ++i) {
    acc[i] += w * (p[2 * i] * p[2 * i] + p[2 * i + 1] * p[2 * i + 1]);
  }
}

double weighted_norm_sum(const double* w, const std::complex<double>* a,
                         std::size_t n) {
  const auto* p = reinterpret_cast<const double*>(a);
  __m256d vacc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_loadu_pd(p + 2 * i);
    const __m256d vb = _mm256_loadu_pd(p + 2 * i + 4);
    const __m256d h = _mm256_hadd_pd(_mm256_mul_pd(va, va),
                                     _mm256_mul_pd(vb, vb));
    const __m256d norms = _mm256_permute4x64_pd(h, 0xD8);
    vacc = _mm256_fmadd_pd(_mm256_loadu_pd(w + i), norms, vacc);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, vacc);
  double acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    acc += w[i] * (p[2 * i] * p[2 * i] + p[2 * i + 1] * p[2 * i + 1]);
  }
  return acc;
}

void seed_cotangent(std::complex<double>* ga, const double* dldi,
                    const std::complex<double>* a, std::size_t n, double s) {
  auto* o = reinterpret_cast<double*>(ga);
  const auto* p = reinterpret_cast<const double*>(a);
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // Broadcast each dldi value across its complex lane: [d0 d0 d1 d1].
    const __m128d dl = _mm_loadu_pd(dldi + i);
    const __m256d f = _mm256_mul_pd(
        vs, _mm256_permute4x64_pd(_mm256_castpd128_pd256(dl), 0x50));
    _mm256_storeu_pd(o + 2 * i,
                     _mm256_mul_pd(f, _mm256_loadu_pd(p + 2 * i)));
  }
  for (; i < n; ++i) {
    const double f = s * dldi[i];
    o[2 * i] = f * p[2 * i];
    o[2 * i + 1] = f * p[2 * i + 1];
  }
}

void add_real(double* acc, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i),
                                            _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

void add_complex(std::complex<double>* acc, const std::complex<double>* x,
                 std::size_t n) {
  add_real(reinterpret_cast<double*>(acc),
           reinterpret_cast<const double*>(x), 2 * n);
}

// ---- band convolution -------------------------------------------------------
//
// Bitwise equal to the scalar op: every term is mul, permute, mul, addsub,
// add.  Neither addsub nor the add has a product operand, so the compiler
// cannot contract them into FMAs (which would round once where the scalar
// form rounds twice).  Band bins are blocked for ILP: with two seeds one
// vector holds the {D, D2} lanes of one bin and 4 bins run together; with
// one seed a vector holds 2 bins and 8 run together.

/// acc + s * w over the complex lanes of `w`, with s = (sr, si) broadcast.
inline __m256d band_term(__m256d acc, __m256d sr, __m256d si, __m256d w) {
  const __m256d t = _mm256_mul_pd(sr, w);                           // sr*w
  const __m256d v = _mm256_mul_pd(si, _mm256_permute_pd(w, 0x5));   // si*w~
  return _mm256_add_pd(acc, _mm256_addsub_pd(t, v));
}
inline __m128d band_term(__m128d acc, __m128d sr, __m128d si, __m128d w) {
  const __m128d t = _mm_mul_pd(sr, w);
  const __m128d v = _mm_mul_pd(si, _mm_permute_pd(w, 0x1));
  return _mm_add_pd(acc, _mm_addsub_pd(t, v));
}

/// The window lanes of two bins of a one-seed window, as one vector.
inline __m256d load_pair(const double* lo, const double* hi) {
  return _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(lo)),
                              _mm_loadu_pd(hi), 1);
}

/// Bins [i, i + kBins) of a two-seed band_conv, one vector per bin.
template <std::size_t kBins>
void two_seed_bins(const double* s, const std::int32_t* off,
                   std::size_t nbins, const double* w, std::size_t i,
                   double* u) {
  const double* wi[kBins];
  __m256d acc[kBins];
  for (std::size_t b = 0; b < kBins; ++b) {
    wi[b] = w + 4 * std::ptrdiff_t{off[i + b]};
    acc[b] = _mm256_setzero_pd();
  }
  for (std::size_t j = 0; j < nbins; ++j) {
    const std::ptrdiff_t dj = 4 * std::ptrdiff_t{off[j]};
    const __m256d sr = _mm256_broadcast_sd(s + 2 * j);
    const __m256d si = _mm256_broadcast_sd(s + 2 * j + 1);
    for (std::size_t b = 0; b < kBins; ++b) {
      acc[b] = band_term(acc[b], sr, si, _mm256_loadu_pd(wi[b] - dj));
    }
  }
  for (std::size_t b = 0; b < kBins; ++b) {
    _mm256_storeu_pd(u + 4 * (i + b), acc[b]);
  }
}

/// Bins [i, i + 2 kPairs) of a one-seed band_conv, two bins per vector.
template <std::size_t kPairs>
void one_seed_pairs(const double* s, const std::int32_t* off,
                    std::size_t nbins, const double* w, std::size_t i,
                    double* u) {
  const double* wi[2 * kPairs];
  __m256d acc[kPairs];
  for (std::size_t b = 0; b < 2 * kPairs; ++b) {
    wi[b] = w + 2 * std::ptrdiff_t{off[i + b]};
  }
  for (std::size_t p = 0; p < kPairs; ++p) acc[p] = _mm256_setzero_pd();
  for (std::size_t j = 0; j < nbins; ++j) {
    const std::ptrdiff_t dj = 2 * std::ptrdiff_t{off[j]};
    const __m256d sr = _mm256_broadcast_sd(s + 2 * j);
    const __m256d si = _mm256_broadcast_sd(s + 2 * j + 1);
    for (std::size_t p = 0; p < kPairs; ++p) {
      acc[p] = band_term(acc[p], sr, si,
                         load_pair(wi[2 * p] - dj, wi[2 * p + 1] - dj));
    }
  }
  for (std::size_t p = 0; p < kPairs; ++p) {
    _mm256_storeu_pd(u + 2 * (i + 2 * p), acc[p]);
  }
}

/// The odd last bin of a one-seed band_conv, at half width.
void one_seed_bin(const double* s, const std::int32_t* off, std::size_t nbins,
                  const double* w, std::size_t i, double* u) {
  const double* wi = w + 2 * std::ptrdiff_t{off[i]};
  __m128d acc = _mm_setzero_pd();
  for (std::size_t j = 0; j < nbins; ++j) {
    acc = band_term(acc, _mm_set1_pd(s[2 * j]), _mm_set1_pd(s[2 * j + 1]),
                    _mm_loadu_pd(wi - 2 * std::ptrdiff_t{off[j]}));
  }
  _mm_storeu_pd(u + 2 * i, acc);
}

void band_conv(const std::complex<double>* s, const std::int32_t* off,
               std::size_t nbins, const std::complex<double>* window,
               std::size_t seeds, std::complex<double>* u) {
  const auto* sp = reinterpret_cast<const double*>(s);
  const auto* w = reinterpret_cast<const double*>(window);
  auto* o = reinterpret_cast<double*>(u);
  std::size_t i = 0;
  if (seeds == 2) {
    for (; i + 4 <= nbins; i += 4) two_seed_bins<4>(sp, off, nbins, w, i, o);
    for (; i < nbins; ++i) two_seed_bins<1>(sp, off, nbins, w, i, o);
    return;
  }
  for (; i + 8 <= nbins; i += 8) one_seed_pairs<4>(sp, off, nbins, w, i, o);
  for (; i + 2 <= nbins; i += 2) one_seed_pairs<1>(sp, off, nbins, w, i, o);
  if (i < nbins) one_seed_bin(sp, off, nbins, w, i, o);
}

// ---- segment cross-correlation ----------------------------------------------
//
// Lags run 4 at a time, two per vector, with the terms of band_term (so
// bitwise equal to the scalar op).  A lane whose lag has no partner at some
// j reads the zero padding around `x` and adds an exact zero, which leaves
// its accumulator unchanged: accumulators start at +0, and a sum that
// starts at +0 never becomes -0.

void xcorr_accumulate(const std::complex<double>* x, std::size_t nx,
                      const std::complex<double>* y, std::size_t ny,
                      std::complex<double>* out) {
  const auto* xp = reinterpret_cast<const double*>(x);
  const auto* yp = reinterpret_cast<const double*>(y);
  auto* o = reinterpret_cast<double*>(out);
  const auto sx = static_cast<std::ptrdiff_t>(nx);
  const auto sy = static_cast<std::ptrdiff_t>(ny);
  for (std::ptrdiff_t k0 = 1 - sy; k0 < sx; k0 += 4) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    const std::ptrdiff_t j_hi = std::min(sy, sx - k0);
    for (std::ptrdiff_t j = std::max<std::ptrdiff_t>(0, -3 - k0); j < j_hi;
         ++j) {
      const __m256d sr = _mm256_broadcast_sd(yp + 2 * j);
      const __m256d si = _mm256_set1_pd(-yp[2 * j + 1]);
      const double* w = xp + 2 * (j + k0);
      acc0 = band_term(acc0, sr, si, _mm256_loadu_pd(w));
      acc1 = band_term(acc1, sr, si, _mm256_loadu_pd(w + 4));
    }
    double* at = o + 2 * k0;
    if (sx - k0 >= 4) {
      _mm256_storeu_pd(at, _mm256_add_pd(_mm256_loadu_pd(at), acc0));
      _mm256_storeu_pd(at + 4, _mm256_add_pd(_mm256_loadu_pd(at + 4), acc1));
      continue;
    }
    alignas(32) double lanes[8];
    _mm256_store_pd(lanes, acc0);
    _mm256_store_pd(lanes + 4, acc1);
    for (std::ptrdiff_t l = 0; l < 2 * (sx - k0); ++l) at[l] += lanes[l];
  }
}

// ---- vectorized exp / sigmoid ----------------------------------------------

/// Cephes-style double-precision exp over 4 lanes, ~1 ulp on the clamp
/// range.  Used only with non-positive inputs by the sigmoid below, so
/// overflow never occurs and deep underflow saturates harmlessly.
inline __m256d exp256(__m256d x) {
  const __m256d log2e = _mm256_set1_pd(1.4426950408889634074);
  const __m256d ln2_hi = _mm256_set1_pd(6.93145751953125e-1);
  const __m256d ln2_lo = _mm256_set1_pd(1.42860682030941723212e-6);
  x = _mm256_min_pd(x, _mm256_set1_pd(709.0));
  x = _mm256_max_pd(x, _mm256_set1_pd(-708.0));
  const __m256d fx = _mm256_round_pd(
      _mm256_mul_pd(x, log2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  x = _mm256_fnmadd_pd(fx, ln2_hi, x);
  x = _mm256_fnmadd_pd(fx, ln2_lo, x);
  const __m256d xx = _mm256_mul_pd(x, x);
  // exp(r) = 1 + 2 r P(r^2) / (Q(r^2) - r P(r^2)) (Cephes rational).
  __m256d px = _mm256_fmadd_pd(_mm256_set1_pd(1.26177193074810590878e-4), xx,
                               _mm256_set1_pd(3.02994407707441961300e-2));
  px = _mm256_fmadd_pd(px, xx, _mm256_set1_pd(9.99999999999999999910e-1));
  px = _mm256_mul_pd(px, x);
  __m256d qx = _mm256_fmadd_pd(_mm256_set1_pd(3.00198505138664455042e-6), xx,
                               _mm256_set1_pd(2.52448340349684104192e-3));
  qx = _mm256_fmadd_pd(qx, xx, _mm256_set1_pd(2.27265548208155028766e-1));
  qx = _mm256_fmadd_pd(qx, xx, _mm256_set1_pd(2.00000000000000000005e0));
  const __m256d e = _mm256_div_pd(px, _mm256_sub_pd(qx, px));
  __m256d result =
      _mm256_fmadd_pd(_mm256_set1_pd(2.0), e, _mm256_set1_pd(1.0));
  // Scale by 2^fx via direct exponent-field addition.
  const __m128i n32 = _mm256_cvtpd_epi32(fx);
  const __m256i n64 = _mm256_slli_epi64(_mm256_cvtepi32_epi64(n32), 52);
  result = _mm256_castsi256_pd(
      _mm256_add_epi64(_mm256_castpd_si256(result), n64));
  return result;
}

void sigmoid(double* out, const double* x, std::size_t n, double alpha,
             double shift) {
  const __m256d va = _mm256_set1_pd(alpha);
  const __m256d vshift = _mm256_set1_pd(shift);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d abs_mask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d z =
        _mm256_mul_pd(va, _mm256_sub_pd(_mm256_loadu_pd(x + i), vshift));
    // e = exp(-|z|) in (0, 1]; r = e/(1+e) = sigmoid(-|z|).
    const __m256d e = exp256(
        _mm256_sub_pd(zero, _mm256_and_pd(z, abs_mask)));
    const __m256d r = _mm256_div_pd(e, _mm256_add_pd(one, e));
    // z >= 0: 1 - r;  z < 0: r.
    const __m256d neg = _mm256_cmp_pd(z, zero, _CMP_LT_OQ);
    _mm256_storeu_pd(out + i,
                     _mm256_blendv_pd(_mm256_sub_pd(one, r), r, neg));
  }
  for (; i < n; ++i) {
    const double z = alpha * (x[i] - shift);
    const double e = std::exp(-std::abs(z));
    const double r = e / (1.0 + e);
    out[i] = z < 0.0 ? r : 1.0 - r;
  }
}

}  // namespace

const FftKernel* avx2_kernel() {
  static const FftKernel kernel = [] {
    FftKernel k;
    k.name = "avx2";
    k.pow2_many = pow2_many;
    k.pow2_cols = pow2_cols;
    k.pow2_cols_fused = pow2_cols_fused;
    k.mixed_odd = mixed_odd;
    k.scale = scale;
    k.cmul = cmul;
    k.cmul_inplace = cmul_inplace;
    k.caxpy = caxpy;
    k.cmul_conj_axpy = cmul_conj_axpy;
    k.accumulate_norm = accumulate_norm;
    k.weighted_norm_sum = weighted_norm_sum;
    k.seed_cotangent = seed_cotangent;
    k.band_conv = band_conv;
    k.xcorr_accumulate = xcorr_accumulate;
    k.add_real = add_real;
    k.add_complex = add_complex;
    k.sigmoid = sigmoid;
    return k;
  }();
  return &kernel;
}

}  // namespace bismo::fft

#else  // !BISMO_FFT_AVX2

namespace bismo::fft {
const FftKernel* avx2_kernel() { return nullptr; }
}  // namespace bismo::fft

#endif

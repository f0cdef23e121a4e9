// bismo-lint: no-alloc
// NEON (aarch64) kernel: the scalar algorithms on float64x2 vectors -- one
// complex double per vector -- with fused multiply-add butterflies.  NEON
// is baseline on aarch64, so this TU needs no special compile flags; the
// registry simply prefers it over scalar on ARM builds.
//
// The transcendental paths (sigmoid) keep scalar std::exp: a 2-lane
// vector exp buys little on NEON and the scalar form keeps the backend
// bitwise-stable against libm.
#include "fft/kernels/kernel.hpp"

#if defined(BISMO_FFT_NEON)

#include <arm_neon.h>

#include <cmath>
#include <utility>

namespace bismo::fft {
namespace {

using fft_detail::Pow2Plan;
using fft_detail::Pow2Stage;

inline float64x2_t neg_even() { return (float64x2_t){-1.0, 1.0}; }
inline float64x2_t neg_odd() { return (float64x2_t){1.0, -1.0}; }

/// [xr xi] * [wr wi].
inline float64x2_t cmul1(float64x2_t x, float64x2_t w) {
  const float64x2_t xr = vdupq_laneq_f64(x, 0);
  const float64x2_t xi = vdupq_laneq_f64(x, 1);
  const float64x2_t wsw = vextq_f64(w, w, 1);  // [wi wr]
  // re = xr*wr - xi*wi ; im = xr*wi + xi*wr
  return vfmaq_f64(vmulq_f64(xi, vmulq_f64(wsw, neg_even())), xr, w);
}

/// [xr xi] * conj([wr wi]).
inline float64x2_t cmul1_conj(float64x2_t x, float64x2_t w) {
  const float64x2_t xr = vdupq_laneq_f64(x, 0);
  const float64x2_t xi = vdupq_laneq_f64(x, 1);
  const float64x2_t wsw = vextq_f64(w, w, 1);
  // re = xr*wr + xi*wi ; im = xi*wr - xr*wi
  return vfmaq_f64(vmulq_f64(xr, vmulq_f64(w, neg_odd())), xi, wsw);
}

/// -i*z (forward) or +i*z (inverse).
template <bool kInv>
inline float64x2_t rot_i(float64x2_t z) {
  const float64x2_t sw = vextq_f64(z, z, 1);  // [im re]
  return vmulq_f64(sw, kInv ? neg_even() : neg_odd());
}

template <bool kInv>
void pow2_one(const Pow2Plan& plan, std::complex<double>* x) {
  const std::size_t n = plan.n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  auto* d = reinterpret_cast<double*>(x);
  if (plan.leading_radix2) {
    for (std::size_t b = 0; b < 2 * n; b += 4) {
      const float64x2_t u = vld1q_f64(d + b);
      const float64x2_t v = vld1q_f64(d + b + 2);
      vst1q_f64(d + b, vaddq_f64(u, v));
      vst1q_f64(d + b + 2, vsubq_f64(u, v));
    }
  }
  for (const Pow2Stage& st : plan.stages) {
    const std::size_t q = st.q;
    const auto* w1 = reinterpret_cast<const double*>(st.w1.data());
    const auto* w2 = reinterpret_cast<const double*>(st.w2.data());
    const auto* w3 = reinterpret_cast<const double*>(st.w3.data());
    for (std::size_t base = 0; base < n; base += 4 * q) {
      for (std::size_t k = 0; k < q; ++k) {
        const std::size_t i0 = 2 * (base + k);
        const std::size_t i1 = i0 + 2 * q;
        const std::size_t i2 = i1 + 2 * q;
        const std::size_t i3 = i2 + 2 * q;
        const float64x2_t x0 = vld1q_f64(d + i0);
        const float64x2_t x1 = vld1q_f64(d + i1);
        const float64x2_t x2 = vld1q_f64(d + i2);
        const float64x2_t x3 = vld1q_f64(d + i3);
        const float64x2_t W1 = vld1q_f64(w1 + 2 * k);
        const float64x2_t W2 = vld1q_f64(w2 + 2 * k);
        const float64x2_t W3 = vld1q_f64(w3 + 2 * k);
        const float64x2_t t1 = kInv ? cmul1_conj(x1, W2) : cmul1(x1, W2);
        const float64x2_t t2 = kInv ? cmul1_conj(x2, W1) : cmul1(x2, W1);
        const float64x2_t t3 = kInv ? cmul1_conj(x3, W3) : cmul1(x3, W3);
        const float64x2_t a = vaddq_f64(x0, t1);
        const float64x2_t b = vsubq_f64(x0, t1);
        const float64x2_t c = vaddq_f64(t2, t3);
        const float64x2_t d4 = rot_i<kInv>(vsubq_f64(t2, t3));
        vst1q_f64(d + i0, vaddq_f64(a, c));
        vst1q_f64(d + i1, vaddq_f64(b, d4));
        vst1q_f64(d + i2, vsubq_f64(a, c));
        vst1q_f64(d + i3, vsubq_f64(b, d4));
      }
    }
  }
}

void pow2_many(const Pow2Plan& plan, std::complex<double>* data,
               std::size_t count, std::size_t stride, bool inverse) {
  if (plan.n <= 1) return;
  if (inverse) {
    for (std::size_t r = 0; r < count; ++r) pow2_one<true>(plan, data + r * stride);
  } else {
    for (std::size_t r = 0; r < count; ++r) pow2_one<false>(plan, data + r * stride);
  }
}

/// In-place twiddle-free radix-2 column stage over adjacent row pairs.
void cols_stage_radix2(double* base_d, std::size_t n, std::size_t dstride,
                       std::size_t dwidth) {
  for (std::size_t r = 0; r < n; r += 2) {
    double* u = base_d + r * dstride;
    double* v = u + dstride;
    for (std::size_t c = 0; c < dwidth; c += 2) {
      const float64x2_t a = vld1q_f64(u + c);
      const float64x2_t b = vld1q_f64(v + c);
      vst1q_f64(u + c, vaddq_f64(a, b));
      vst1q_f64(v + c, vsubq_f64(a, b));
    }
  }
}

/// In-place radix-4 column stage with broadcast twiddles: shared by the
/// staged pass and the middle stages of the fused pass.
template <bool kInv>
void cols_stage_radix4(const Pow2Stage& st, double* base_d, std::size_t n,
                       std::size_t dstride, std::size_t dwidth) {
  const double cs = kInv ? -1.0 : 1.0;
  const std::size_t q = st.q;
  for (std::size_t base = 0; base < n; base += 4 * q) {
    for (std::size_t k = 0; k < q; ++k) {
      const float64x2_t W1 = {st.w1[k].real(), cs * st.w1[k].imag()};
      const float64x2_t W2 = {st.w2[k].real(), cs * st.w2[k].imag()};
      const float64x2_t W3 = {st.w3[k].real(), cs * st.w3[k].imag()};
      double* r0 = base_d + (base + k) * dstride;
      double* r1 = r0 + q * dstride;
      double* r2 = r1 + q * dstride;
      double* r3 = r2 + q * dstride;
      for (std::size_t c = 0; c < dwidth; c += 2) {
        const float64x2_t x0 = vld1q_f64(r0 + c);
        const float64x2_t t1 = cmul1(vld1q_f64(r1 + c), W2);
        const float64x2_t t2 = cmul1(vld1q_f64(r2 + c), W1);
        const float64x2_t t3 = cmul1(vld1q_f64(r3 + c), W3);
        const float64x2_t a = vaddq_f64(x0, t1);
        const float64x2_t b = vsubq_f64(x0, t1);
        const float64x2_t cc = vaddq_f64(t2, t3);
        const float64x2_t d4 = rot_i<kInv>(vsubq_f64(t2, t3));
        vst1q_f64(r0 + c, vaddq_f64(a, cc));
        vst1q_f64(r1 + c, vaddq_f64(b, d4));
        vst1q_f64(r2 + c, vsubq_f64(a, cc));
        vst1q_f64(r3 + c, vsubq_f64(b, d4));
      }
    }
  }
}

/// Lock-step column transform: butterflies sweep whole rows with broadcast
/// twiddles, unit-stride one complex per vector.
template <bool kInv>
void pow2_cols_impl(const Pow2Plan& plan, std::complex<double>* data,
                    std::size_t width, std::size_t stride) {
  const std::size_t n = plan.n;
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
// Mirrors the scalar/AVX2 fused pass: first stage gathers through the bit
// reversal (zero-flagged rows never read, optional cotangent seed folded
// into the loads), middle stages are the shared helpers above, the last
// stage scales and accumulates weighted norms as it stores.

inline const double* fused_row(const fft_detail::ColsFusion& f, std::size_t j,
                               std::size_t dstride) {
  if (f.row_nonzero && !f.row_nonzero[j]) return nullptr;
  return reinterpret_cast<const double*>(f.src) + j * dstride;
}

/// kWns (seeded only) folds the input reduction seed[i] * |src_i|^2 into
/// the load (one complex per vector; |x|^2 is a horizontal pair-add).
template <bool kSeed, bool kWns>
inline float64x2_t fused_load(const double* row, const double* seed_row,
                              double ss, std::size_t c, double* wns) {
  if (!row) return vdupq_n_f64(0.0);
  const float64x2_t x = vld1q_f64(row + c);
  if (!kSeed) return x;
  if (kWns) *wns += seed_row[c / 2] * vaddvq_f64(vmulq_f64(x, x));
  const float64x2_t f = vdupq_n_f64(ss * seed_row[c / 2]);
  return vmulq_f64(f, x);
}

/// Gathered leading radix-2 stage.
template <bool kSeed, bool kWns>
void fused_stage_r2(const Pow2Plan& plan, const fft_detail::ColsFusion& f,
                    double* out, std::size_t dwidth, std::size_t dstride,
                    double* wns) {
  const std::size_t n = plan.n;
  const double ss = f.seed_scale;
  double wacc = 0.0;
  for (std::size_t r = 0; r < n; r += 2) {
    const std::size_t j0 = plan.bitrev[r];
    const std::size_t j1 = plan.bitrev[r + 1];
    const double* u = fused_row(f, j0, dstride);
    const double* v = fused_row(f, j1, dstride);
    const double* su = kSeed ? f.seed + j0 * (dwidth / 2) : nullptr;
    const double* sv = kSeed ? f.seed + j1 * (dwidth / 2) : nullptr;
    double* o0 = out + r * dstride;
    double* o1 = o0 + dstride;
    for (std::size_t c = 0; c < dwidth; c += 2) {
      const float64x2_t a = fused_load<kSeed, kWns>(u, su, ss, c, &wacc);
      const float64x2_t b = fused_load<kSeed, kWns>(v, sv, ss, c, &wacc);
      vst1q_f64(o0 + c, vaddq_f64(a, b));
      vst1q_f64(o1 + c, vsubq_f64(a, b));
    }
  }
  if (kWns) *wns = wacc;
}

/// Gathered first radix-4 stage (q == 1, unity twiddles).
template <bool kInv, bool kSeed, bool kWns>
void fused_stage_r4_first(const Pow2Plan& plan, const fft_detail::ColsFusion& f,
                          double* out, std::size_t dwidth, std::size_t dstride,
                          double* wns) {
  const std::size_t n = plan.n;
  const double ss = f.seed_scale;
  double wacc = 0.0;
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
    for (std::size_t c = 0; c < dwidth; c += 2) {
      const float64x2_t x0 = fused_load<kSeed, kWns>(x[0], sx[0], ss, c, &wacc);
      const float64x2_t x1 = fused_load<kSeed, kWns>(x[1], sx[1], ss, c, &wacc);
      const float64x2_t x2 = fused_load<kSeed, kWns>(x[2], sx[2], ss, c, &wacc);
      const float64x2_t x3 = fused_load<kSeed, kWns>(x[3], sx[3], ss, c, &wacc);
      const float64x2_t a = vaddq_f64(x0, x1);
      const float64x2_t bb = vsubq_f64(x0, x1);
      const float64x2_t cc = vaddq_f64(x2, x3);
      const float64x2_t d4 = rot_i<kInv>(vsubq_f64(x2, x3));
      vst1q_f64(o0 + c, vaddq_f64(a, cc));
      vst1q_f64(o1 + c, vaddq_f64(bb, d4));
      vst1q_f64(o2 + c, vsubq_f64(a, cc));
      vst1q_f64(o3 + c, vsubq_f64(bb, d4));
    }
  }
  if (kWns) *wns = wacc;
}

/// Final radix-4 stage with the scale / weighted-norm epilogue fused into
/// the stores.  One complex per vector: the |y|^2 value is a horizontal
/// pair-add of y*y, matching accumulate_norm's arithmetic.
template <bool kInv, int kMode>
void fused_stage_last(const Pow2Stage& st, const fft_detail::ColsFusion& f,
                      double* base_d, std::size_t n, std::size_t dstride,
                      std::size_t dwidth, double* wns_out) {
  const double cs = kInv ? -1.0 : 1.0;
  const std::size_t q = st.q;
  const std::size_t rw = dwidth / 2;
  const double s = f.scale;
  const float64x2_t vs = vdupq_n_f64(s);
  const double w = f.norm_weight;
  double wns = 0.0;
  for (std::size_t base = 0; base < n; base += 4 * q) {
    for (std::size_t k = 0; k < q; ++k) {
      const float64x2_t W1 = {st.w1[k].real(), cs * st.w1[k].imag()};
      const float64x2_t W2 = {st.w2[k].real(), cs * st.w2[k].imag()};
      const float64x2_t W3 = {st.w3[k].real(), cs * st.w3[k].imag()};
      const std::size_t row0 = base + k;
      double* r0 = base_d + row0 * dstride;
      double* r1 = r0 + q * dstride;
      double* r2 = r1 + q * dstride;
      double* r3 = r2 + q * dstride;
      double* a0 = kMode == 1 ? f.norm_acc + row0 * rw : nullptr;
      double* a1 = kMode == 1 ? a0 + q * rw : nullptr;
      double* a2 = kMode == 1 ? a1 + q * rw : nullptr;
      double* a3 = kMode == 1 ? a2 + q * rw : nullptr;
      const double* g0 = kMode == 2 ? f.wns_weights + row0 * rw : nullptr;
      const double* g1 = kMode == 2 ? g0 + q * rw : nullptr;
      const double* g2 = kMode == 2 ? g1 + q * rw : nullptr;
      const double* g3 = kMode == 2 ? g2 + q * rw : nullptr;
      for (std::size_t c = 0; c < dwidth; c += 2) {
        const float64x2_t x0 = vld1q_f64(r0 + c);
        const float64x2_t t1 = cmul1(vld1q_f64(r1 + c), W2);
        const float64x2_t t2 = cmul1(vld1q_f64(r2 + c), W1);
        const float64x2_t t3 = cmul1(vld1q_f64(r3 + c), W3);
        const float64x2_t a = vaddq_f64(x0, t1);
        const float64x2_t b = vsubq_f64(x0, t1);
        const float64x2_t cc = vaddq_f64(t2, t3);
        const float64x2_t d4 = rot_i<kInv>(vsubq_f64(t2, t3));
        const float64x2_t y0 = vmulq_f64(vaddq_f64(a, cc), vs);
        const float64x2_t y1 = vmulq_f64(vaddq_f64(b, d4), vs);
        const float64x2_t y2 = vmulq_f64(vsubq_f64(a, cc), vs);
        const float64x2_t y3 = vmulq_f64(vsubq_f64(b, d4), vs);
        vst1q_f64(r0 + c, y0);
        vst1q_f64(r1 + c, y1);
        vst1q_f64(r2 + c, y2);
        vst1q_f64(r3 + c, y3);
        if (kMode != 0) {
          const double n0 = vaddvq_f64(vmulq_f64(y0, y0));
          const double n1 = vaddvq_f64(vmulq_f64(y1, y1));
          const double n2 = vaddvq_f64(vmulq_f64(y2, y2));
          const double n3 = vaddvq_f64(vmulq_f64(y3, y3));
          if (kMode == 1) {
            a0[c / 2] += w * n0;
            a1[c / 2] += w * n1;
            a2[c / 2] += w * n2;
            a3[c / 2] += w * n3;
          } else {
            wns += g0[c / 2] * n0;
            wns += g1[c / 2] * n1;
            wns += g2[c / 2] * n2;
            wns += g3[c / 2] * n3;
          }
        }
      }
    }
  }
  if (kMode == 2) *wns_out = wns;
}

template <bool kInv, bool kSeed, bool kWns>
void pow2_cols_fused_impl(const Pow2Plan& plan,
                          const fft_detail::ColsFusion& fusion, double* base_d,
                          std::size_t dwidth, std::size_t dstride) {
  const std::size_t n = plan.n;
  double iwns = 0.0;  // seeded input reduction (see ColsFusion)
  std::size_t first = 0;
  if (plan.leading_radix2) {
    fused_stage_r2<kSeed, kWns>(plan, fusion, base_d, dwidth, dstride, &iwns);
  } else {
    fused_stage_r4_first<kInv, kSeed, kWns>(plan, fusion, base_d, dwidth,
                                            dstride, &iwns);
    first = 1;
  }
  const std::size_t last = plan.stages.size() - 1;
  for (std::size_t si = first; si < last; ++si) {
    cols_stage_radix4<kInv>(plan.stages[si], base_d, n, dstride, dwidth);
  }
  double wns = 0.0;
  const Pow2Stage& st = plan.stages[last];
  if (fusion.norm_acc) {
    fused_stage_last<kInv, 1>(st, fusion, base_d, n, dstride, dwidth, &wns);
  } else if (fusion.wns_weights && fusion.wns_out) {
    fused_stage_last<kInv, 2>(st, fusion, base_d, n, dstride, dwidth, &wns);
  } else {
    fused_stage_last<kInv, 0>(st, fusion, base_d, n, dstride, dwidth, &wns);
  }
  if (fusion.wns_out) *fusion.wns_out = kWns ? iwns : wns;
}

template <bool kInv>
void pow2_cols_fused_dispatch(const Pow2Plan& plan,
                              const fft_detail::ColsFusion& fusion,
                              double* base_d, std::size_t dwidth,
                              std::size_t dstride) {
  if (fusion.seed) {
    if (fusion.wns_out && !fusion.wns_weights) {
      pow2_cols_fused_impl<kInv, true, true>(plan, fusion, base_d, dwidth,
                                             dstride);
    } else {
      pow2_cols_fused_impl<kInv, true, false>(plan, fusion, base_d, dwidth,
                                              dstride);
    }
  } else {
    pow2_cols_fused_impl<kInv, false, false>(plan, fusion, base_d, dwidth,
                                             dstride);
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

void scale(std::complex<double>* x, std::size_t n, double s) {
  auto* d = reinterpret_cast<double*>(x);
  const float64x2_t vs = vdupq_n_f64(s);
  for (std::size_t i = 0; i < 2 * n; i += 2) {
    vst1q_f64(d + i, vmulq_f64(vld1q_f64(d + i), vs));
  }
}

void cmul(std::complex<double>* dst, const std::complex<double>* a,
          const std::complex<double>* b, std::size_t n) {
  auto* o = reinterpret_cast<double*>(dst);
  const auto* p = reinterpret_cast<const double*>(a);
  const auto* q = reinterpret_cast<const double*>(b);
  for (std::size_t i = 0; i < n; ++i) {
    vst1q_f64(o + 2 * i, cmul1(vld1q_f64(p + 2 * i), vld1q_f64(q + 2 * i)));
  }
}

void cmul_inplace(std::complex<double>* dst, const std::complex<double>* b,
                  std::size_t n, bool conj_b) {
  auto* o = reinterpret_cast<double*>(dst);
  const auto* q = reinterpret_cast<const double*>(b);
  if (conj_b) {
    for (std::size_t i = 0; i < n; ++i) {
      vst1q_f64(o + 2 * i,
                cmul1_conj(vld1q_f64(o + 2 * i), vld1q_f64(q + 2 * i)));
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      vst1q_f64(o + 2 * i, cmul1(vld1q_f64(o + 2 * i), vld1q_f64(q + 2 * i)));
    }
  }
}

void caxpy(std::complex<double>* dst, const std::complex<double>* a,
           std::size_t n, double s) {
  auto* o = reinterpret_cast<double*>(dst);
  const auto* p = reinterpret_cast<const double*>(a);
  const float64x2_t vs = vdupq_n_f64(s);
  for (std::size_t i = 0; i < 2 * n; i += 2) {
    vst1q_f64(o + i, vfmaq_f64(vld1q_f64(o + i), vs, vld1q_f64(p + i)));
  }
}

void cmul_conj_axpy(std::complex<double>* dst, const std::complex<double>* a,
                    const std::complex<double>* b, std::size_t n, double s) {
  auto* o = reinterpret_cast<double*>(dst);
  const auto* p = reinterpret_cast<const double*>(a);
  const auto* q = reinterpret_cast<const double*>(b);
  const float64x2_t vs = vdupq_n_f64(s);
  for (std::size_t i = 0; i < n; ++i) {
    const float64x2_t prod =
        cmul1_conj(vld1q_f64(p + 2 * i), vld1q_f64(q + 2 * i));
    vst1q_f64(o + 2 * i, vfmaq_f64(vld1q_f64(o + 2 * i), vs, prod));
  }
}

void accumulate_norm(double* acc, const std::complex<double>* a,
                     std::size_t n, double w) {
  const auto* p = reinterpret_cast<const double*>(a);
  const float64x2_t vw = vdupq_n_f64(w);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t v0 = vld1q_f64(p + 2 * i);
    const float64x2_t v1 = vld1q_f64(p + 2 * i + 2);
    const float64x2_t norms =
        vpaddq_f64(vmulq_f64(v0, v0), vmulq_f64(v1, v1));
    vst1q_f64(acc + i, vfmaq_f64(vld1q_f64(acc + i), vw, norms));
  }
  for (; i < n; ++i) {
    acc[i] += w * (p[2 * i] * p[2 * i] + p[2 * i + 1] * p[2 * i + 1]);
  }
}

double weighted_norm_sum(const double* w, const std::complex<double>* a,
                         std::size_t n) {
  const auto* p = reinterpret_cast<const double*>(a);
  float64x2_t vacc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t v0 = vld1q_f64(p + 2 * i);
    const float64x2_t v1 = vld1q_f64(p + 2 * i + 2);
    const float64x2_t norms =
        vpaddq_f64(vmulq_f64(v0, v0), vmulq_f64(v1, v1));
    vacc = vfmaq_f64(vacc, vld1q_f64(w + i), norms);
  }
  double acc = vgetq_lane_f64(vacc, 0) + vgetq_lane_f64(vacc, 1);
  for (; i < n; ++i) {
    acc += w[i] * (p[2 * i] * p[2 * i] + p[2 * i + 1] * p[2 * i + 1]);
  }
  return acc;
}

void seed_cotangent(std::complex<double>* ga, const double* dldi,
                    const std::complex<double>* a, std::size_t n, double s) {
  auto* o = reinterpret_cast<double*>(ga);
  const auto* p = reinterpret_cast<const double*>(a);
  for (std::size_t i = 0; i < n; ++i) {
    const float64x2_t f = vdupq_n_f64(s * dldi[i]);
    vst1q_f64(o + 2 * i, vmulq_f64(f, vld1q_f64(p + 2 * i)));
  }
}

void add_real(double* acc, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(acc + i, vaddq_f64(vld1q_f64(acc + i), vld1q_f64(x + i)));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

void add_complex(std::complex<double>* acc, const std::complex<double>* x,
                 std::size_t n) {
  add_real(reinterpret_cast<double*>(acc),
           reinterpret_cast<const double*>(x), 2 * n);
}

void sigmoid(double* out, const double* x, std::size_t n, double alpha,
             double shift) {
  for (std::size_t i = 0; i < n; ++i) {
    const double z = alpha * (x[i] - shift);
    if (z >= 0.0) {
      out[i] = 1.0 / (1.0 + std::exp(-z));
    } else {
      const double e = std::exp(z);
      out[i] = e / (1.0 + e);
    }
  }
}

}  // namespace

const FftKernel* neon_kernel() {
  static const FftKernel kernel = [] {
    FftKernel k;
    k.name = "neon";
    k.pow2_many = pow2_many;
    k.pow2_cols = pow2_cols;
    k.pow2_cols_fused = pow2_cols_fused;
    k.scale = scale;
    k.cmul = cmul;
    k.cmul_inplace = cmul_inplace;
    k.caxpy = caxpy;
    k.cmul_conj_axpy = cmul_conj_axpy;
    k.accumulate_norm = accumulate_norm;
    k.weighted_norm_sum = weighted_norm_sum;
    k.seed_cotangent = seed_cotangent;
    // The cached-image ops reuse the scalar reference (fused multiply-add
    // under the default contraction, like accumulate_norm above).
    k.axpy_real = scalar_kernel().axpy_real;
    k.dot_real = scalar_kernel().dot_real;
    k.add_real = add_real;
    k.add_complex = add_complex;
    k.sigmoid = sigmoid;
    return k;
  }();
  return &kernel;
}

}  // namespace bismo::fft

#else  // !BISMO_FFT_NEON

namespace bismo::fft {
const FftKernel* neon_kernel() { return nullptr; }
}  // namespace bismo::fft

#endif

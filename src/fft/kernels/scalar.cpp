// bismo-lint: no-alloc
// Portable reference kernel: the exact algorithms of the SIMD backends in
// plain double arithmetic.  This backend defines the baseline every other
// backend is validated against (<= 1e-12 relative agreement) and is the
// fallback on CPUs without AVX2.
//
// Butterflies operate on raw re/im pairs: std::complex multiplication
// routes through overflow-safe helpers the optimizer cannot always elide;
// the manual form is the classic butterfly.  The layout cast is sanctioned
// by the standard's array-oriented access guarantee for std::complex.
#include "fft/kernels/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

namespace bismo::fft {
namespace {

using fft_detail::Pow2Plan;
using fft_detail::Pow2Stage;

void pow2_one(const Pow2Plan& plan, std::complex<double>* x, bool inverse) {
  const std::size_t n = plan.n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  auto* d = reinterpret_cast<double*>(x);
  if (plan.leading_radix2) {
    // Twiddle-free radix-2 stage over adjacent pairs.
    for (std::size_t b = 0; b < 2 * n; b += 4) {
      const double ur = d[b];
      const double ui = d[b + 1];
      const double vr = d[b + 2];
      const double vi = d[b + 3];
      d[b] = ur + vr;
      d[b + 1] = ui + vi;
      d[b + 2] = ur - vr;
      d[b + 3] = ui - vi;
    }
  }
  // Conjugating the twiddles (and flipping -i to +i in the radix-4
  // butterfly) turns the forward transform into the unnormalized inverse.
  const double cs = inverse ? -1.0 : 1.0;
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
        // 3-multiply radix-4 butterfly: t1 = x1*W^2, t2 = x2*W^1,
        // t3 = x3*W^3 (sub-DFTs are bit-reverse ordered, hence W^2 on x1).
        const double t1r = d[i1] * w2[2 * k] - d[i1 + 1] * (cs * w2[2 * k + 1]);
        const double t1i = d[i1] * (cs * w2[2 * k + 1]) + d[i1 + 1] * w2[2 * k];
        const double t2r = d[i2] * w1[2 * k] - d[i2 + 1] * (cs * w1[2 * k + 1]);
        const double t2i = d[i2] * (cs * w1[2 * k + 1]) + d[i2 + 1] * w1[2 * k];
        const double t3r = d[i3] * w3[2 * k] - d[i3 + 1] * (cs * w3[2 * k + 1]);
        const double t3i = d[i3] * (cs * w3[2 * k + 1]) + d[i3 + 1] * w3[2 * k];
        const double ar = d[i0] + t1r;
        const double ai = d[i0 + 1] + t1i;
        const double br = d[i0] - t1r;
        const double bi = d[i0 + 1] - t1i;
        const double cr = t2r + t3r;
        const double ci = t2i + t3i;
        // dd = t2 - t3; d4 = -i*dd forward, +i*dd inverse.
        const double d4r = cs * (t2i - t3i);
        const double d4i = -cs * (t2r - t3r);
        d[i0] = ar + cr;
        d[i0 + 1] = ai + ci;
        d[i1] = br + d4r;
        d[i1 + 1] = bi + d4i;
        d[i2] = ar - cr;
        d[i2 + 1] = ai - ci;
        d[i3] = br - d4r;
        d[i3 + 1] = bi - d4i;
      }
    }
  }
}

void pow2_many(const Pow2Plan& plan, std::complex<double>* data,
               std::size_t count, std::size_t stride, bool inverse) {
  if (plan.n <= 1) return;
  for (std::size_t r = 0; r < count; ++r) {
    pow2_one(plan, data + r * stride, inverse);
  }
}

// In-place twiddle-free radix-2 column stage over adjacent row pairs.
void cols_stage_radix2(double* base_d, std::size_t n, std::size_t dstride,
                       std::size_t width) {
  for (std::size_t r = 0; r < n; r += 2) {
    double* u = base_d + r * dstride;
    double* v = u + dstride;
    for (std::size_t c = 0; c < 2 * width; ++c) {
      const double a = u[c];
      const double b = v[c];
      u[c] = a + b;
      v[c] = a - b;
    }
  }
}

// In-place radix-4 column stage: shared by the in-place pass and by the
// middle stages of the fused pass, so both run identical arithmetic.
void cols_stage_radix4(const Pow2Stage& st, double* base_d, std::size_t n,
                       std::size_t dstride, std::size_t width, double cs) {
  const std::size_t q = st.q;
  for (std::size_t base = 0; base < n; base += 4 * q) {
    for (std::size_t k = 0; k < q; ++k) {
      const double w1r = st.w1[k].real();
      const double w1i = cs * st.w1[k].imag();
      const double w2r = st.w2[k].real();
      const double w2i = cs * st.w2[k].imag();
      const double w3r = st.w3[k].real();
      const double w3i = cs * st.w3[k].imag();
      double* r0 = base_d + (base + k) * dstride;
      double* r1 = r0 + q * dstride;
      double* r2 = r1 + q * dstride;
      double* r3 = r2 + q * dstride;
      for (std::size_t c = 0; c < 2 * width; c += 2) {
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

void pow2_cols(const Pow2Plan& plan, std::complex<double>* data,
               std::size_t width, std::size_t stride, bool inverse) {
  const std::size_t n = plan.n;
  if (n <= 1 || width == 0) return;
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
  if (plan.leading_radix2) {
    cols_stage_radix2(base_d, n, dstride, width);
  }
  const double cs = inverse ? -1.0 : 1.0;
  for (const Pow2Stage& st : plan.stages) {
    cols_stage_radix4(st, base_d, n, dstride, width, cs);
  }
}

// ---- Fused column pass ------------------------------------------------
//
// The first butterfly stage reads the source grid through the bit
// reversal (no row swaps, rows flagged zero never read, the optional
// cotangent seed folded into the loads); the last stage applies the
// scale/weighted-norm epilogue as it stores.  Middle stages are the
// shared in-place helpers above, so the fused pass computes the same
// per-element arithmetic as the per-stage sequence.

// Source-row base pointer, or null when the row is flagged zero (loads
// then become literal 0.0 without touching memory).
inline const double* fused_row(const fft_detail::ColsFusion& f, std::size_t j,
                               std::size_t dstride) {
  if (f.row_nonzero && !f.row_nonzero[j]) return nullptr;
  return reinterpret_cast<const double*>(f.src) + j * dstride;
}

// Gathered leading radix-2 stage: output rows (r, r+1) combine source
// rows bitrev[r], bitrev[r+1].
template <bool kSeed>
void fused_stage_r2(const Pow2Plan& plan, const fft_detail::ColsFusion& f,
                    double* out, std::size_t width, std::size_t dstride) {
  const std::size_t n = plan.n;
  const double ss = f.seed_scale;
  for (std::size_t r = 0; r < n; r += 2) {
    const std::size_t j0 = plan.bitrev[r];
    const std::size_t j1 = plan.bitrev[r + 1];
    const double* u = fused_row(f, j0, dstride);
    const double* v = fused_row(f, j1, dstride);
    const double* su = kSeed ? f.seed + j0 * width : nullptr;
    const double* sv = kSeed ? f.seed + j1 * width : nullptr;
    double* o0 = out + r * dstride;
    double* o1 = o0 + dstride;
    for (std::size_t c = 0; c < 2 * width; c += 2) {
      double ur = 0.0, ui = 0.0, vr = 0.0, vi = 0.0;
      if (u) {
        const double fu = kSeed ? ss * su[c / 2] : 1.0;
        ur = kSeed ? fu * u[c] : u[c];
        ui = kSeed ? fu * u[c + 1] : u[c + 1];
      }
      if (v) {
        const double fv = kSeed ? ss * sv[c / 2] : 1.0;
        vr = kSeed ? fv * v[c] : v[c];
        vi = kSeed ? fv * v[c + 1] : v[c + 1];
      }
      o0[c] = ur + vr;
      o0[c + 1] = ui + vi;
      o1[c] = ur - vr;
      o1[c + 1] = ui - vi;
    }
  }
}

// Gathered first radix-4 stage (q == 1, unity twiddles -- bitwise equal
// to the in-place pass's multiply by W^0): output rows (b..b+3) combine source
// rows bitrev[b..b+3].
template <bool kSeed>
void fused_stage_r4_first(const Pow2Plan& plan, const fft_detail::ColsFusion& f,
                          double* out, std::size_t width, std::size_t dstride,
                          double cs) {
  const std::size_t n = plan.n;
  const double ss = f.seed_scale;
  for (std::size_t b = 0; b < n; b += 4) {
    const double* x[4];
    const double* sx[4] = {nullptr, nullptr, nullptr, nullptr};
    for (int t = 0; t < 4; ++t) {
      const std::size_t j = plan.bitrev[b + t];
      x[t] = fused_row(f, j, dstride);
      if (kSeed) sx[t] = f.seed + j * width;
    }
    double* o0 = out + b * dstride;
    double* o1 = o0 + dstride;
    double* o2 = o1 + dstride;
    double* o3 = o2 + dstride;
    for (std::size_t c = 0; c < 2 * width; c += 2) {
      double xr[4], xi[4];
      for (int t = 0; t < 4; ++t) {
        if (x[t]) {
          const double fx = kSeed ? ss * sx[t][c / 2] : 1.0;
          xr[t] = kSeed ? fx * x[t][c] : x[t][c];
          xi[t] = kSeed ? fx * x[t][c + 1] : x[t][c + 1];
        } else {
          xr[t] = 0.0;
          xi[t] = 0.0;
        }
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

// Final radix-4 stage with the epilogue fused into the stores: scale
// (always; 1.0 is a bitwise identity), then kNorm accumulates
// norm_weight * |y|^2 into norm_acc.
template <bool kNorm>
void fused_stage_last(const Pow2Stage& st, const fft_detail::ColsFusion& f,
                      double* base_d, std::size_t n, std::size_t dstride,
                      std::size_t width, double cs) {
  const double s = f.scale;
  const double w = f.norm_weight;
  const std::size_t q = st.q;
  for (std::size_t base = 0; base < n; base += 4 * q) {
    for (std::size_t k = 0; k < q; ++k) {
      const double w1r = st.w1[k].real();
      const double w1i = cs * st.w1[k].imag();
      const double w2r = st.w2[k].real();
      const double w2i = cs * st.w2[k].imag();
      const double w3r = st.w3[k].real();
      const double w3i = cs * st.w3[k].imag();
      const std::size_t row0 = base + k;
      double* r0 = base_d + row0 * dstride;
      double* r1 = r0 + q * dstride;
      double* r2 = r1 + q * dstride;
      double* r3 = r2 + q * dstride;
      double* a0 = kNorm ? f.norm_acc + row0 * width : nullptr;
      double* a1 = kNorm ? a0 + q * width : nullptr;
      double* a2 = kNorm ? a1 + q * width : nullptr;
      double* a3 = kNorm ? a2 + q * width : nullptr;
      for (std::size_t c = 0; c < 2 * width; c += 2) {
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
          a0[c / 2] += w * (y0r * y0r + y0i * y0i);
          a1[c / 2] += w * (y1r * y1r + y1i * y1i);
          a2[c / 2] += w * (y2r * y2r + y2i * y2i);
          a3[c / 2] += w * (y3r * y3r + y3i * y3i);
        }
      }
    }
  }
}

void pow2_cols_fused(const Pow2Plan& plan,
                     const fft_detail::ColsFusion& fusion,
                     std::complex<double>* dst, std::size_t width,
                     std::size_t stride, bool inverse) {
  const std::size_t n = plan.n;
  if (width == 0) return;
  auto* base_d = reinterpret_cast<double*>(dst);
  const std::size_t dstride = 2 * stride;
  const double cs = inverse ? -1.0 : 1.0;
  std::size_t first = 0;
  if (plan.leading_radix2) {
    if (fusion.seed) {
      fused_stage_r2<true>(plan, fusion, base_d, width, dstride);
    } else {
      fused_stage_r2<false>(plan, fusion, base_d, width, dstride);
    }
  } else {
    if (fusion.seed) {
      fused_stage_r4_first<true>(plan, fusion, base_d, width, dstride, cs);
    } else {
      fused_stage_r4_first<false>(plan, fusion, base_d, width, dstride, cs);
    }
    first = 1;
  }
  const std::size_t last = plan.stages.size() - 1;
  for (std::size_t si = first; si < last; ++si) {
    cols_stage_radix4(plan.stages[si], base_d, n, dstride, width, cs);
  }
  const Pow2Stage& st = plan.stages[last];
  if (fusion.norm_acc) {
    fused_stage_last<true>(st, fusion, base_d, n, dstride, width, cs);
  } else {
    fused_stage_last<false>(st, fusion, base_d, n, dstride, width, cs);
  }
}

// ---- Mixed-radix odd pass ---------------------------------------------

// Length-r DFT in the paired form of fft_detail::MixedPlan: (xr, xi) hold
// the twiddled inputs t_0..t_{r-1}; the outputs are written to (yr, yi).
// cs = -1 for the inverse transform flips the sign of i.
void odd_dft(const fft_detail::MixedPlan& plan, const double* xr,
             const double* xi, double* yr, double* yi, double cs) {
  const std::size_t r = plan.r;
  const std::size_t h = (r - 1) / 2;
  double sr[7], si[7], dr[7], di[7];
  double y0r = xr[0];
  double y0i = xi[0];
  for (std::size_t p = 1; p <= h; ++p) {
    sr[p - 1] = xr[p] + xr[r - p];
    si[p - 1] = xi[p] + xi[r - p];
    dr[p - 1] = xr[p] - xr[r - p];
    di[p - 1] = xi[p] - xi[r - p];
    y0r += sr[p - 1];
    y0i += si[p - 1];
  }
  yr[0] = y0r;
  yi[0] = y0i;
  for (std::size_t k = 1; k <= h; ++k) {
    double ar = xr[0], ai = xi[0], br = 0.0, bi = 0.0;
    for (std::size_t p = 1; p <= h; ++p) {
      const double c = plan.cosr[(p - 1) * h + (k - 1)];
      const double sn = plan.sinr[(p - 1) * h + (k - 1)];
      ar += c * sr[p - 1];
      ai += c * si[p - 1];
      br += sn * dr[p - 1];
      bi += sn * di[p - 1];
    }
    // -i*b forward, +i*b inverse.
    const double ibr = cs * bi;
    const double ibi = -cs * br;
    yr[k] = ar + ibr;
    yi[k] = ai + ibi;
    yr[r - k] = ar - ibr;
    yi[r - k] = ai - ibi;
  }
}

void mixed_odd(const fft_detail::MixedPlan& plan, std::complex<double>* data,
               std::size_t width, std::size_t stride, bool inverse,
               const fft_detail::ColsFusion* epilogue) {
  const std::size_t r = plan.r;
  const std::size_t m = plan.m;
  const double cs = inverse ? -1.0 : 1.0;
  auto* d = reinterpret_cast<double*>(data);
  const double s = epilogue != nullptr ? epilogue->scale : 1.0;
  double* acc = epilogue != nullptr ? epilogue->norm_acc : nullptr;
  double xr[15], xi[15], yr[15], yi[15];
  for (std::size_t k2 = 0; k2 < m; ++k2) {
    for (std::size_t c = 0; c < width; ++c) {
      for (std::size_t n1 = 0; n1 < r; ++n1) {
        const std::size_t at = 2 * ((n1 * m + k2) * stride + c);
        const double vr = d[at];
        const double vi = d[at + 1];
        if (n1 == 0) {
          xr[0] = vr;
          xi[0] = vi;
          continue;
        }
        const std::complex<double> w = plan.tw[n1 * m + k2];
        const double wr = w.real();
        const double wi = cs * w.imag();
        xr[n1] = vr * wr - vi * wi;
        xi[n1] = vr * wi + vi * wr;
      }
      odd_dft(plan, xr, xi, yr, yi, cs);
      for (std::size_t k1 = 0; k1 < r; ++k1) {
        const std::size_t p = k1 * m + k2;
        const std::size_t at = 2 * (p * stride + c);
        if (epilogue == nullptr) {
          d[at] = yr[k1];
          d[at + 1] = yi[k1];
          continue;
        }
        const double vr = yr[k1] * s;
        const double vi = yi[k1] * s;
        d[at] = vr;
        d[at + 1] = vi;
        if (acc != nullptr) {
          acc[p * width + c] +=
              epilogue->norm_weight * (vr * vr + vi * vi);
        }
      }
    }
  }
}

void scale(std::complex<double>* x, std::size_t n, double s) {
  auto* d = reinterpret_cast<double*>(x);
  for (std::size_t i = 0; i < 2 * n; ++i) d[i] *= s;
}

void cmul(std::complex<double>* dst, const std::complex<double>* a,
          const std::complex<double>* b, std::size_t n) {
  auto* o = reinterpret_cast<double*>(dst);
  const auto* p = reinterpret_cast<const double*>(a);
  const auto* q = reinterpret_cast<const double*>(b);
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = p[2 * i];
    const double ai = p[2 * i + 1];
    const double br = q[2 * i];
    const double bi = q[2 * i + 1];
    o[2 * i] = ar * br - ai * bi;
    o[2 * i + 1] = ar * bi + ai * br;
  }
}

void caxpy(std::complex<double>* dst, const std::complex<double>* a,
           std::size_t n, double s) {
  auto* o = reinterpret_cast<double*>(dst);
  const auto* p = reinterpret_cast<const double*>(a);
  for (std::size_t i = 0; i < 2 * n; ++i) o[i] += s * p[i];
}

void cmul_conj_axpy(std::complex<double>* dst, const std::complex<double>* a,
                    const std::complex<double>* b, std::size_t n, double s) {
  auto* o = reinterpret_cast<double*>(dst);
  const auto* p = reinterpret_cast<const double*>(a);
  const auto* q = reinterpret_cast<const double*>(b);
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = p[2 * i];
    const double ai = p[2 * i + 1];
    const double br = q[2 * i];
    const double bi = -q[2 * i + 1];
    o[2 * i] += s * (ar * br - ai * bi);
    o[2 * i + 1] += s * (ar * bi + ai * br);
  }
}

double weighted_norm_sum(const double* w, const std::complex<double>* a,
                         std::size_t n) {
  const auto* p = reinterpret_cast<const double*>(a);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += w[i] * (p[2 * i] * p[2 * i] + p[2 * i + 1] * p[2 * i + 1]);
  }
  return acc;
}

void seed_cotangent(std::complex<double>* ga, const double* dldi,
                    const std::complex<double>* a, std::size_t n, double s) {
  auto* o = reinterpret_cast<double*>(ga);
  const auto* p = reinterpret_cast<const double*>(a);
  for (std::size_t i = 0; i < n; ++i) {
    const double f = s * dldi[i];
    o[2 * i] = f * p[2 * i];
    o[2 * i + 1] = f * p[2 * i + 1];
  }
}

template <std::size_t kSeeds>
void band_conv_seeds(const std::complex<double>* s, const std::int32_t* off,
                     std::size_t nbins, const std::complex<double>* window,
                     std::complex<double>* u) {
  const auto* sp = reinterpret_cast<const double*>(s);
  const auto* w = reinterpret_cast<const double*>(window);
  auto* o = reinterpret_cast<double*>(u);
  constexpr std::ptrdiff_t kStep = 2 * kSeeds;  // doubles per offset
  for (std::size_t i = 0; i < nbins; ++i) {
    const double* at_i = w + kStep * off[i];
    double acc[kStep] = {};
    for (std::size_t j = 0; j < nbins; ++j) {
      const double sr = sp[2 * j];
      const double si = sp[2 * j + 1];
      const double* d = at_i - kStep * off[j];
      for (std::size_t k = 0; k < kSeeds; ++k) {
        const double wr = d[2 * k];
        const double wi = d[2 * k + 1];
        acc[2 * k] += sr * wr - si * wi;
        acc[2 * k + 1] += sr * wi + si * wr;
      }
    }
    for (std::ptrdiff_t k = 0; k < kStep; ++k) o[kStep * i + k] = acc[k];
  }
}

void band_conv(const std::complex<double>* s, const std::int32_t* off,
               std::size_t nbins, const std::complex<double>* window,
               std::size_t seeds, std::complex<double>* u) {
  if (seeds == 2) {
    band_conv_seeds<2>(s, off, nbins, window, u);
  } else {
    band_conv_seeds<1>(s, off, nbins, window, u);
  }
}

void xcorr_accumulate(const std::complex<double>* x, std::size_t nx,
                      const std::complex<double>* y, std::size_t ny,
                      std::complex<double>* out) {
  const auto* xp = reinterpret_cast<const double*>(x);
  const auto* yp = reinterpret_cast<const double*>(y);
  auto* o = reinterpret_cast<double*>(out);
  const auto sx = static_cast<std::ptrdiff_t>(nx);
  const auto sy = static_cast<std::ptrdiff_t>(ny);
  for (std::ptrdiff_t k = 1 - sy; k < sx; ++k) {
    const std::ptrdiff_t j_hi = std::min(sy, sx - k);
    double acc_re = 0.0;
    double acc_im = 0.0;
    for (std::ptrdiff_t j = std::max<std::ptrdiff_t>(0, -k); j < j_hi; ++j) {
      const double sr = yp[2 * j];
      const double si = -yp[2 * j + 1];
      const double wr = xp[2 * (j + k)];
      const double wi = xp[2 * (j + k) + 1];
      acc_re += sr * wr - si * wi;
      acc_im += sr * wi + si * wr;
    }
    o[2 * k] += acc_re;
    o[2 * k + 1] += acc_im;
  }
}

void add_real(double* acc, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += x[i];
}

void add_complex(std::complex<double>* acc, const std::complex<double>* x,
                 std::size_t n) {
  auto* o = reinterpret_cast<double*>(acc);
  const auto* p = reinterpret_cast<const double*>(x);
  for (std::size_t i = 0; i < 2 * n; ++i) o[i] += p[i];
}

void sigmoid(double* out, const double* x, std::size_t n, double alpha,
             double shift) {
  // Numerically safe logistic, branch-matched to bismo::sigmoid so the
  // scalar backend reproduces the seed bitwise.
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

const FftKernel& scalar_kernel() {
  static const FftKernel kernel = [] {
    FftKernel k;
    k.name = "scalar";
    k.pow2_many = pow2_many;
    k.pow2_cols = pow2_cols;
    k.pow2_cols_fused = pow2_cols_fused;
    k.mixed_odd = mixed_odd;
    k.scale = scale;
    k.cmul = cmul;
    k.caxpy = caxpy;
    k.cmul_conj_axpy = cmul_conj_axpy;
    k.weighted_norm_sum = weighted_norm_sum;
    k.seed_cotangent = seed_cotangent;
    k.band_conv = band_conv;
    k.xcorr_accumulate = xcorr_accumulate;
    k.add_real = add_real;
    k.add_complex = add_complex;
    k.sigmoid = sigmoid;
    return k;
  }();
  return kernel;
}

}  // namespace bismo::fft

#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>

#include "fft/kernels/kernel.hpp"

namespace bismo {

namespace {

using fft_detail::MixedPlan;
using fft_detail::Pow2Plan;
using fft_detail::Pow2Stage;

constexpr double kPi = 3.141592653589793238462643383279502884;

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t odd_part(std::size_t n) {
  while (n % 2 == 0) n /= 2;
  return n;
}

/// Plan-cache lookup shared by the power-of-two and mixed-radix caches:
/// existing plans are served under a shared lock (the common case after
/// warm-up); only a first-time build takes the exclusive lock.
template <typename Plan, typename Build>
const Plan* cached_plan(std::shared_mutex& mu,
                        std::map<std::size_t, std::unique_ptr<Plan>>& cache,
                        std::size_t n, const Build& build) {
  {
    std::shared_lock<std::shared_mutex> lock(mu);
    const auto it = cache.find(n);
    if (it != cache.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(mu);
  auto& slot = cache[n];
  if (!slot) slot = build();
  return slot.get();
}

const Pow2Plan* pow2_plan(std::size_t n) {
  static std::shared_mutex mu;
  static std::map<std::size_t, std::unique_ptr<Pow2Plan>> cache;
  return cached_plan(mu, cache, n, [n] {
    auto plan = std::make_unique<Pow2Plan>();
    plan->n = n;
    plan->bitrev.resize(n);
    std::size_t bits = 0;
    while ((std::size_t{1} << bits) < n) ++bits;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t rev = 0;
      for (std::size_t b = 0; b < bits; ++b) {
        rev |= ((i >> b) & 1u) << (bits - 1 - b);
      }
      plan->bitrev[i] = static_cast<std::uint32_t>(rev);
    }
    // Factor n = [2 *] 4^k: a leading twiddle-free radix-2 stage when
    // log2(n) is odd, then radix-4 stages with SoA twiddles
    // w1[k] = W^k, w2[k] = W^2k, w3[k] = W^3k, W = exp(-2*pi*i/(4q)).
    plan->leading_radix2 = (bits % 2 == 1);
    std::size_t q = plan->leading_radix2 ? 2 : 1;
    while (q < n) {
      Pow2Stage stage;
      stage.q = q;
      stage.w1.resize(q);
      stage.w2.resize(q);
      stage.w3.resize(q);
      const double base = -2.0 * kPi / static_cast<double>(4 * q);
      for (std::size_t k = 0; k < q; ++k) {
        const double a1 = base * static_cast<double>(k);
        const double a2 = base * static_cast<double>(2 * k);
        const double a3 = base * static_cast<double>(3 * k);
        stage.w1[k] = {std::cos(a1), std::sin(a1)};
        stage.w2[k] = {std::cos(a2), std::sin(a2)};
        stage.w3[k] = {std::cos(a3), std::sin(a3)};
      }
      plan->stages.push_back(std::move(stage));
      q *= 4;
    }
    return plan;
  });
}

const MixedPlan* mixed_plan(std::size_t n) {
  static std::shared_mutex mu;
  static std::map<std::size_t, std::unique_ptr<MixedPlan>> cache;
  return cached_plan(mu, cache, n, [n] {
    auto plan = std::make_unique<MixedPlan>();
    const std::size_t r = odd_part(n);
    const std::size_t m = n / r;
    plan->n = n;
    plan->r = r;
    plan->m = m;
    plan->sub = pow2_plan(m);
    plan->tw.resize(n);
    for (std::size_t n1 = 0; n1 < r; ++n1) {
      for (std::size_t k2 = 0; k2 < m; ++k2) {
        // n1 * k2 < n, so the angle needs no reduction.
        const double ang = -2.0 * kPi * static_cast<double>(n1 * k2) /
                           static_cast<double>(n);
        plan->tw[n1 * m + k2] = {std::cos(ang), std::sin(ang)};
      }
    }
    const std::size_t h = (r - 1) / 2;
    plan->cosr.resize(h * h);
    plan->sinr.resize(h * h);
    for (std::size_t p = 1; p <= h; ++p) {
      for (std::size_t k = 1; k <= h; ++k) {
        const double ang = 2.0 * kPi * static_cast<double>((p * k) % r) /
                           static_cast<double>(r);
        plan->cosr[(p - 1) * h + (k - 1)] = std::cos(ang);
        plan->sinr[(p - 1) * h + (k - 1)] = std::sin(ang);
      }
    }
    // Position p = n1*m + n2 takes input perm[p] = n1 + r*n2.  Each cycle
    // c0 <- c1 <- ... of perm becomes the swaps (c0, c1), (c1, c2), ...:
    // after them position c_i holds the old c_{i+1}.
    const auto perm = [r, m](std::size_t p) { return p / m + r * (p % m); };
    std::vector<bool> done(n, false);
    for (std::size_t start = 0; start < n; ++start) {
      if (done[start]) continue;
      done[start] = true;
      for (std::size_t at = start; perm(at) != start; at = perm(at)) {
        plan->swaps.push_back(static_cast<std::uint32_t>(at));
        plan->swaps.push_back(static_cast<std::uint32_t>(perm(at)));
        done[perm(at)] = true;
      }
    }
    return plan;
  });
}

// bismo-lint: no-alloc-begin
// Mixed-radix execution (see fft_detail::MixedPlan): every step runs in
// place on caller data, so a warmed transform allocates nothing.

/// Step 1 in place on `n` grid rows `stride` apart, each `width` long:
/// the swap sequence realizes the digit reversal.
void mixed_permute_rows(const MixedPlan& plan, std::complex<double>* data,
                        std::size_t width, std::size_t stride) {
  const std::uint32_t* sw = plan.swaps.data();
  const std::size_t count = plan.swaps.size();
  for (std::size_t i = 0; i < count; i += 2) {
    std::complex<double>* a = data + std::size_t{sw[i]} * stride;
    std::swap_ranges(a, a + width, data + std::size_t{sw[i + 1]} * stride);
  }
}

/// One in-place mixed-radix transform of a contiguous length-n row; the
/// digit reversal gathers back from a copy in `scratch` (n elements),
/// which beats chained swaps on a row that sits in L1.
void mixed_row(const MixedPlan& plan, std::complex<double>* x, bool inverse,
               std::complex<double>* scratch) {
  const fft::FftKernel& kernel = fft::active_kernel();
  const std::size_t r = plan.r;
  const std::size_t m = plan.m;
  std::copy(x, x + plan.n, scratch);
  for (std::size_t n1 = 0; n1 < r; ++n1) {
    for (std::size_t n2 = 0; n2 < m; ++n2) {
      x[n1 * m + n2] = scratch[n1 + r * n2];
    }
  }
  kernel.pow2_many(*plan.sub, x, r, m, inverse);
  kernel.mixed_odd(plan, x, 1, 1, inverse, nullptr);
}

/// Steps 2 and 3 of a lock-step column transform whose input is already
/// digit-reversed: the r power-of-two blocks of m rows, then the odd pass
/// (with the fused epilogue when `epilogue` is non-null).
void mixed_cols_blocks(const MixedPlan& plan, std::complex<double>* data,
                       std::size_t width, std::size_t stride, bool inverse,
                       const fft_detail::ColsFusion* epilogue) {
  const fft::FftKernel& kernel = fft::active_kernel();
  for (std::size_t b = 0; b < plan.r; ++b) {
    kernel.pow2_cols(*plan.sub, data + b * plan.m * stride, width, stride,
                     inverse);
  }
  kernel.mixed_odd(plan, data, width, stride, inverse, epilogue);
}

/// Fused mixed-radix column pass: the ColsFusion input side (row flags,
/// cotangent seed) rides the digit-reversing copy from `fusion.src` into
/// `dst`, and the output epilogue rides the odd pass's stores.
void mixed_cols_fused(const MixedPlan& plan,
                      const fft_detail::ColsFusion& fusion,
                      std::complex<double>* dst, std::size_t width,
                      std::size_t stride, bool inverse) {
  const fft::FftKernel& kernel = fft::active_kernel();
  // Row n1*m + n2 of `dst` takes source row n1 + r*n2.
  for (std::size_t p = 0; p < plan.n; ++p) {
    const std::size_t j = p / plan.m + plan.r * (p % plan.m);
    std::complex<double>* out = dst + p * stride;
    if (fusion.row_nonzero != nullptr && !fusion.row_nonzero[j]) {
      std::fill(out, out + width, std::complex<double>{0.0, 0.0});
      continue;
    }
    const std::complex<double>* in = fusion.src + j * stride;
    if (fusion.seed != nullptr) {
      kernel.seed_cotangent(out, fusion.seed + j * width, in, width,
                            fusion.seed_scale);
    } else {
      std::copy(in, in + width, out);
    }
  }
  mixed_cols_blocks(plan, dst, width, stride, inverse, &fusion);
}
// bismo-lint: no-alloc-end

void transform_1d(std::complex<double>* x, std::size_t n, bool inverse) {
  if (n == 0) throw std::invalid_argument("fft: zero length");
  const Fft1dPlan plan(n);
  std::vector<std::complex<double>> scratch(plan.scratch_size());
  plan.transform(x, inverse, scratch.data());
}

}  // namespace

// ---- Smooth lengths ---------------------------------------------------------

bool is_smooth_length(std::size_t n) {
  return n != 0 && odd_part(n) <= kMaxOddFactor;
}

std::size_t next_smooth_length(std::size_t n) {
  if (n == 0) return 1;
  while (!is_smooth_length(n)) ++n;
  return n;
}

// ---- Plan handles -----------------------------------------------------------

Fft1dPlan::Fft1dPlan(std::size_t n) : n_(n) {
  if (!is_smooth_length(n)) {
    throw std::invalid_argument("Fft1dPlan: length " + std::to_string(n) +
                                " is not r * 2^k with odd r <= " +
                                std::to_string(kMaxOddFactor));
  }
  if (n == 1) return;
  if (is_power_of_two(n)) {
    pow2_ = pow2_plan(n);
  } else {
    mixed_ = mixed_plan(n);
  }
}

std::size_t Fft1dPlan::scratch_size() const noexcept {
  return mixed_ != nullptr ? n_ : 0;
}

void Fft1dPlan::transform(std::complex<double>* data, bool inverse,
                          std::complex<double>* scratch) const {
  if (n_ <= 1) return;
  if (pow2_ != nullptr) {
    fft::active_kernel().pow2_many(*pow2_, data, 1, n_, inverse);
  } else {
    mixed_row(*mixed_, data, inverse, scratch);
  }
}

void Fft1dPlan::transform_many(std::complex<double>* data, std::size_t count,
                               std::size_t stride, bool inverse,
                               std::complex<double>* scratch) const {
  if (n_ <= 1 || count == 0) return;
  if (pow2_ != nullptr) {
    fft::active_kernel().pow2_many(*pow2_, data, count, stride, inverse);
  } else {
    // Row by row, so each row stays in L1 across the three steps.
    for (std::size_t r = 0; r < count; ++r) {
      mixed_row(*mixed_, data + r * stride, inverse, scratch);
    }
  }
}

void Fft1dPlan::transform_columns(std::complex<double>* data,
                                  std::size_t width, std::size_t stride,
                                  bool inverse) const {
  if (n_ <= 1 || width == 0) return;
  if (pow2_ != nullptr) {
    fft::active_kernel().pow2_cols(*pow2_, data, width, stride, inverse);
  } else {
    mixed_permute_rows(*mixed_, data, width, stride);
    mixed_cols_blocks(*mixed_, data, width, stride, inverse, nullptr);
  }
}

bool Fft1dPlan::fused_columns() const noexcept {
  return mixed_ != nullptr || (pow2_ != nullptr && n_ >= 8);
}

void Fft1dPlan::transform_columns_fused(const fft_detail::ColsFusion& fusion,
                                        std::complex<double>* dst,
                                        std::size_t width, std::size_t stride,
                                        bool inverse) const {
  if (!fused_columns()) {
    throw std::logic_error(
        "transform_columns_fused: no fused pass for length " +
        std::to_string(n_) + " (power-of-two lengths >= 8 and mixed-radix "
        "lengths only)");
  }
  if (width == 0) return;
  if (mixed_ != nullptr) {
    mixed_cols_fused(*mixed_, fusion, dst, width, stride, inverse);
  } else {
    fft::active_kernel().pow2_cols_fused(*pow2_, fusion, dst, width, stride,
                                         inverse);
  }
}

Fft2dPlan::Fft2dPlan(std::size_t rows, std::size_t cols)
    : row_plan_(cols), col_plan_(rows) {}

std::size_t Fft2dPlan::scratch_size() const noexcept {
  return row_plan_.scratch_size();
}

void Fft2dPlan::transform_row(std::complex<double>* row, bool inverse,
                              std::complex<double>* scratch) const {
  row_plan_.transform(row, inverse, scratch);
}

void Fft2dPlan::transform_rows(std::complex<double>* rows_ptr,
                               std::size_t nrows, bool inverse,
                               std::complex<double>* scratch) const {
  row_plan_.transform_many(rows_ptr, nrows, cols(), inverse, scratch);
}

void Fft2dPlan::transform_cols(ComplexGrid& g, bool inverse) const {
  // All columns in lock-step over whole rows: unit-stride butterflies
  // with broadcast twiddles, no gather/scatter.
  col_plan_.transform_columns(g.data(), cols(), cols(), inverse);
}

void Fft2dPlan::transform_cols_fused(const fft_detail::ColsFusion& fusion,
                                     ComplexGrid& dst, bool inverse) const {
  col_plan_.transform_columns_fused(fusion, dst.data(), cols(), cols(),
                                    inverse);
}

void Fft2dPlan::transform(ComplexGrid& g, bool inverse,
                          std::complex<double>* scratch) const {
  if (g.rows() != rows() || g.cols() != cols()) {
    throw std::invalid_argument("Fft2dPlan: grid shape mismatch");
  }
  transform_rows(g.data(), rows(), inverse, scratch);
  transform_cols(g, inverse);
}

void Fft2dPlan::forward(ComplexGrid& g, std::complex<double>* scratch) const {
  transform(g, /*inverse=*/false, scratch);
}

void Fft2dPlan::inverse(ComplexGrid& g, std::complex<double>* scratch) const {
  transform(g, /*inverse=*/true, scratch);
  fft::active_kernel().scale(g.data(), g.size(),
                             1.0 / static_cast<double>(g.size()));
}

// ---- Free functions ---------------------------------------------------------

void fft_1d(std::complex<double>* data, std::size_t n) {
  transform_1d(data, n, /*inverse=*/false);
}

void ifft_1d(std::complex<double>* data, std::size_t n) {
  transform_1d(data, n, /*inverse=*/true);
  const double scale = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) data[i] *= scale;
}

void fft_1d(std::vector<std::complex<double>>& data) {
  fft_1d(data.data(), data.size());
}

void ifft_1d(std::vector<std::complex<double>>& data) {
  ifft_1d(data.data(), data.size());
}

namespace {

/// Shared implementation of the convenience 2-D entry points: plan handles
/// (cache-locked at most twice) plus one scratch allocation.
void transform_2d(ComplexGrid& g, bool inverse) {
  if (g.rows() == 0 || g.cols() == 0) return;
  const Fft2dPlan plan(g.rows(), g.cols());
  std::vector<std::complex<double>> scratch(plan.scratch_size());
  plan.transform(g, inverse, scratch.data());
}

}  // namespace

void fft2(ComplexGrid& g) { transform_2d(g, /*inverse=*/false); }

void ifft2(ComplexGrid& g) {
  transform_2d(g, /*inverse=*/true);
  if (g.size() == 0) return;
  fft::active_kernel().scale(g.data(), g.size(),
                             1.0 / static_cast<double>(g.size()));
}

ComplexGrid fft2_copy(const ComplexGrid& g) {
  ComplexGrid out = g;
  fft2(out);
  return out;
}

ComplexGrid ifft2_copy(const ComplexGrid& g) {
  ComplexGrid out = g;
  ifft2(out);
  return out;
}

ComplexGrid fft2_adjoint(const ComplexGrid& g) {
  // adjoint(F) = F^H = N * F^{-1}
  ComplexGrid out = g;
  transform_2d(out, /*inverse=*/true);  // unnormalized inverse = F^H
  return out;
}

ComplexGrid ifft2_adjoint(const ComplexGrid& g) {
  // adjoint(F^{-1}) = (1/N) * F
  ComplexGrid out = g;
  transform_2d(out, /*inverse=*/false);
  if (out.size() == 0) return out;
  fft::active_kernel().scale(out.data(), out.size(),
                             1.0 / static_cast<double>(out.size()));
  return out;
}

double fft_freq(std::size_t k, std::size_t n, double d) {
  return static_cast<double>(fft_freq_index(k, n)) /
         (static_cast<double>(n) * d);
}

long fft_freq_index(std::size_t k, std::size_t n) {
  if (k >= n) throw std::out_of_range("fft_freq_index: k >= n");
  const long kn = static_cast<long>(n);
  const long kk = static_cast<long>(k);
  return (kk <= (kn - 1) / 2) ? kk : kk - kn;
}

}  // namespace bismo

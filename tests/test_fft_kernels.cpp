// FFT backend equivalence suite: every compiled kernel backend (scalar,
// AVX2) must agree with the scalar reference to <= 1e-12 relative
// error, satisfy the round-trip property across power-of-two, mixed-radix,
// and rectangular shapes, be run-to-run deterministic, and
// pass gradient checks end to end.  The elementwise kernel ops the imaging
// engines use are validated against plain double references, and the
// band-convolution op (alone and inside sim::adjoint_pass) bit for bit
// against the modulo-gather loop it replaced, and the segment
// cross-correlation op of the image-cache fill bit for bit against its
// term-by-term oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "fft/fft.hpp"
#include "fft/kernels/kernel.hpp"
#include "grad/abbe_grad.hpp"
#include "grad/gradcheck.hpp"
#include "litho/abbe.hpp"
#include "litho/activation.hpp"
#include "math/grid_ops.hpp"
#include "math/rng.hpp"
#include "parallel/reduction.hpp"
#include "sim/imaging_model.hpp"
#include "test_util.hpp"

namespace bismo {
namespace {

using testing::BackendGuard;
using testing::random_complex_grid;

double max_rel_diff(const ComplexGrid& a, const ComplexGrid& b) {
  double scale = 0.0;
  for (const auto& v : a) scale = std::max(scale, std::abs(v));
  if (scale == 0.0) scale = 1.0;
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::abs(a[i] - b[i]));
  }
  return diff / scale;
}

/// Shapes covering radix-4 (even log2), radix-2+4 (odd log2), mixed radix
/// (r * 2^k, odd r <= 15), and rectangular mixes of all of them.
const std::vector<std::pair<std::size_t, std::size_t>>& test_shapes() {
  static const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {4, 4},   {8, 8},    {16, 16},  {32, 32},  {64, 64}, {128, 128},
      {7, 7},   {12, 20},  {16, 12},  {5, 64},   {64, 5},  {2, 2},
      {1, 1},   {8, 32},   {96, 96},  {80, 160}, {192, 24}, {120, 40},
  };
  return shapes;
}

TEST(FftKernels, ScalarBackendAlwaysAvailable) {
  const auto backends = fft::available_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.back(), "scalar");
  EXPECT_TRUE(fft::set_backend("scalar"));
  EXPECT_STREQ(fft::backend_name(), "scalar");
  EXPECT_TRUE(fft::set_backend("auto"));
  EXPECT_FALSE(fft::set_backend("no-such-backend"));
}

TEST(FftKernels, BackendsAreAvx2WhenTheCpuHasItThenScalar) {
  std::vector<std::string> expected;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  if (fft::avx2_kernel() != nullptr && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    expected.emplace_back("avx2");
  }
#endif
  expected.emplace_back("scalar");
  EXPECT_EQ(fft::available_backends(), expected);

  // There is no NEON backend: the name is unknown on every CPU and leaves
  // the active backend as it was.
  const std::string active = fft::backend_name();
  EXPECT_FALSE(fft::set_backend("neon"));
  EXPECT_EQ(fft::backend_name(), active);
}

TEST(FftKernels, CrossBackendAgreementWithin1e12) {
  for (const auto& [rows, cols] : test_shapes()) {
    Rng rng(10 * rows + cols);
    const ComplexGrid g = random_complex_grid(rng, rows, cols);

    BackendGuard scalar("scalar");
    ASSERT_TRUE(scalar.ok());
    const ComplexGrid ref_fwd = fft2_copy(g);
    const ComplexGrid ref_inv = ifft2_copy(g);

    for (const std::string& name : fft::available_backends()) {
      if (name == "scalar") continue;
      ASSERT_TRUE(fft::set_backend(name));
      const ComplexGrid fwd = fft2_copy(g);
      const ComplexGrid inv = ifft2_copy(g);
      fft::set_backend("scalar");
      EXPECT_LE(max_rel_diff(fwd, ref_fwd), 1e-12)
          << name << " forward " << rows << "x" << cols;
      EXPECT_LE(max_rel_diff(inv, ref_inv), 1e-12)
          << name << " inverse " << rows << "x" << cols;
    }
  }
}

TEST(FftKernels, RoundTripIsIdentityUnderEveryBackend) {
  for (const std::string& name : fft::available_backends()) {
    BackendGuard guard(name);
    ASSERT_TRUE(guard.ok()) << name;
    for (const auto& [rows, cols] : test_shapes()) {
      Rng rng(1000 + 10 * rows + cols);
      const ComplexGrid g = random_complex_grid(rng, rows, cols);
      ComplexGrid h = g;
      fft2(h);
      ifft2(h);
      EXPECT_LE(max_rel_diff(h, g), 1e-12)
          << name << " " << rows << "x" << cols;
    }
  }
}

TEST(FftKernels, EveryBackendMatchesNaiveReference) {
  for (const std::string& name : fft::available_backends()) {
    BackendGuard guard(name);
    ASSERT_TRUE(guard.ok()) << name;
    for (const auto& [rows, cols] :
         {std::pair<std::size_t, std::size_t>{8, 8}, {4, 6}, {5, 7},
          {16, 16}, {13, 28}, {36, 44}}) {
      Rng rng(2000 + 10 * rows + cols);
      const ComplexGrid g = random_complex_grid(rng, rows, cols);
      const ComplexGrid expect = testing::naive_dft2(g, false);
      const ComplexGrid got = fft2_copy(g);
      EXPECT_LT(testing::max_diff(got, expect), 1e-9)
          << name << " " << rows << "x" << cols;
    }
  }
}

TEST(FftKernels, BackendsAreRunToRunDeterministic) {
  for (const std::string& name : fft::available_backends()) {
    BackendGuard guard(name);
    ASSERT_TRUE(guard.ok()) << name;
    for (const auto& [rows, cols] : test_shapes()) {
      Rng rng(77 + rows + cols);
      const ComplexGrid g = random_complex_grid(rng, rows, cols);
      const ComplexGrid first = fft2_copy(g);
      const ComplexGrid second = fft2_copy(g);
      EXPECT_EQ(first, second) << name << " " << rows << "x" << cols;
    }
  }
}

TEST(FftKernels, MixedRadixMatchesNaiveWithin1e12) {
  // Every odd factor 3..15, alone and over power-of-two blocks, on every
  // backend, relative to the largest reference bin.
  for (const std::string& name : fft::available_backends()) {
    BackendGuard guard(name);
    ASSERT_TRUE(guard.ok()) << name;
    for (const std::size_t n : {3u, 7u, 13u, 24u, 36u, 44u, 80u, 96u, 104u,
                                112u, 120u, 192u}) {
      Rng rng(4000 + n);
      std::vector<std::complex<double>> x(n);
      for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
      for (const bool inverse : {false, true}) {
        const auto expect = testing::naive_dft(x, inverse);
        auto got = x;
        if (inverse) {
          ifft_1d(got);
        } else {
          fft_1d(got);
        }
        double scale = 0.0;
        double diff = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          scale = std::max(scale, std::abs(expect[i]));
          diff = std::max(diff, std::abs(got[i] - expect[i]));
        }
        EXPECT_LE(diff / scale, 1e-12)
            << name << " n=" << n << " inverse=" << inverse;
      }
    }
  }
}

TEST(FftKernels, BatchedRowsMatchPerRowTransforms) {
  for (const std::string& name : fft::available_backends()) {
    BackendGuard guard(name);
    ASSERT_TRUE(guard.ok()) << name;
    for (const std::size_t n : {std::size_t{16}, std::size_t{12}}) {
      Rng rng(300 + n);
      ComplexGrid batched = random_complex_grid(rng, n, n);
      ComplexGrid per_row = batched;
      const Fft2dPlan plan(n, n);
      std::vector<std::complex<double>> scratch(plan.scratch_size());
      plan.transform_rows(batched.data(), n, /*inverse=*/false,
                          scratch.data());
      for (std::size_t r = 0; r < n; ++r) {
        plan.transform_row(per_row.data() + r * n, /*inverse=*/false,
                           scratch.data());
      }
      EXPECT_EQ(batched, per_row) << name << " n=" << n;  // bitwise
    }
  }
}

TEST(FftKernels, ElementwiseOpsMatchPlainDoubleReference) {
  const std::size_t n = 257;  // odd: exercises every SIMD tail
  Rng rng(91);
  std::vector<std::complex<double>> a(n), b(n);
  std::vector<double> w(n);
  for (auto& v : a) v = {rng.uniform(-2, 2), rng.uniform(-2, 2)};
  for (auto& v : b) v = {rng.uniform(-2, 2), rng.uniform(-2, 2)};
  for (auto& v : w) v = rng.uniform(-1, 1);

  for (const std::string& name : fft::available_backends()) {
    BackendGuard guard(name);
    ASSERT_TRUE(guard.ok()) << name;
    const fft::FftKernel& kernel = fft::active_kernel();

    std::vector<std::complex<double>> got(n);
    kernel.cmul(got.data(), a.data(), b.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LT(std::abs(got[i] - a[i] * b[i]), 1e-12) << name;
    }

    got = a;
    kernel.caxpy(got.data(), b.data(), n, 0.37);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LT(std::abs(got[i] - (a[i] + 0.37 * b[i])), 1e-12) << name;
    }

    got = a;
    kernel.cmul_conj_axpy(got.data(), b.data(), a.data(), n, 0.25);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LT(std::abs(got[i] - (a[i] + 0.25 * b[i] * std::conj(a[i]))),
                1e-12)
          << name;
    }

    double ref_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) ref_sum += w[i] * std::norm(a[i]);
    EXPECT_NEAR(kernel.weighted_norm_sum(w.data(), a.data(), n), ref_sum,
                1e-11 * n)
        << name;

    kernel.seed_cotangent(got.data(), w.data(), a.data(), n, 2.0);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LT(std::abs(got[i] - 2.0 * w[i] * a[i]), 1e-12) << name;
    }

    got = a;
    kernel.scale(got.data(), n, 0.125);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], a[i] * 0.125) << name;  // exact: power-of-two scale
    }
  }
}

TEST(FftKernels, SigmoidMatchesReferenceWithin1e12) {
  const std::size_t n = 1003;
  std::vector<double> x(n);
  Rng rng(17);
  // Cover the saturation tails and the transition region.
  for (std::size_t i = 0; i < n; ++i) x[i] = rng.uniform(-60.0, 60.0);
  x[0] = 0.0;
  x[1] = 709.0;
  x[2] = -709.0;

  for (const std::string& name : fft::available_backends()) {
    BackendGuard guard(name);
    ASSERT_TRUE(guard.ok()) << name;
    for (const double alpha : {1.0, 9.0, 30.0}) {
      for (const double shift : {0.0, 0.225}) {
        std::vector<double> out(n);
        fft::active_kernel().sigmoid(out.data(), x.data(), n, alpha, shift);
        for (std::size_t i = 0; i < n; ++i) {
          const double ref = sigmoid(alpha * (x[i] - shift));
          EXPECT_NEAR(out[i], ref, 1e-12)
              << name << " alpha=" << alpha << " x=" << x[i];
        }
      }
    }
  }
}

// ---- Band convolution (bitwise across backends) -----------------------------

bool same_bits(double a, double b) {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

bool same_bits(std::complex<double> a, std::complex<double> b) {
  return same_bits(a.real(), b.real()) && same_bits(a.imag(), b.imag());
}

/// Signed lift of index k on an n-point axis, as the spectrum sees it.
int lift(std::size_t k, std::size_t n) {
  const int sk = static_cast<int>(k);
  return k < n - n / 2 ? sk : sk - static_cast<int>(n);
}

/// One pass-band on an n x n spectrum: sorted row-major bins, their
/// occupied rows, and optional pupil values (empty = unit pupil).
struct ConvBand {
  std::vector<std::uint32_t> bins;
  std::vector<std::uint32_t> rows;
  std::vector<std::complex<double>> vals;

  sim::BandRef ref() const {
    return sim::BandRef{bins.data(), vals.empty() ? nullptr : vals.data(),
                        bins.size(), rows.data(), rows.size()};
  }
};

/// The bins within sqrt(r2) of spectrum point (cr, cc), distances taken
/// periodically, so a disk near row/col 0 or the Nyquist row wraps.  With
/// `defocus`, the pupil values carry a quadratic phase (a defocused pupil).
ConvBand disk_band(std::size_t n, int cr, int cc, int r2, bool defocus) {
  ConvBand band;
  const int ni = static_cast<int>(n);
  for (std::size_t r = 0; r < n; ++r) {
    const int dr = lift(static_cast<std::size_t>(
                            ((static_cast<int>(r) - cr) % ni + ni) % ni),
                        n);
    for (std::size_t c = 0; c < n; ++c) {
      const int dc = lift(static_cast<std::size_t>(
                              ((static_cast<int>(c) - cc) % ni + ni) % ni),
                          n);
      if (dr * dr + dc * dc > r2) continue;
      band.bins.push_back(static_cast<std::uint32_t>(r * n + c));
      if (band.rows.empty() || band.rows.back() != r) {
        band.rows.push_back(static_cast<std::uint32_t>(r));
      }
      if (defocus) {
        band.vals.push_back(std::polar(0.9, 0.07 * (dr * dr + dc * dc) + 0.3));
      }
    }
  }
  return band;
}

/// The band shapes every band-conv test sweeps: a disk wrapping row 0 and
/// col 0 (unit pupil and defocused), an off-centre disk, and disks that
/// straddle the Nyquist row.  Every one has an odd bin count, so no SIMD
/// bin block divides it.
std::vector<ConvBand> conv_bands(std::size_t n) {
  const int half = static_cast<int>(n / 2);
  return {disk_band(n, 0, 0, 20, false), disk_band(n, 0, 0, 20, true),
          disk_band(n, 3, -2, 13, false), disk_band(n, half, 5, 10, false),
          disk_band(n, half, -1, 17, true)};
}

/// The direct modulo-gather loop that FftKernel::band_conv replaced, kept
/// as the oracle: with S = o .* vals over the band bins it returns
/// U = (D (*) S)|_band (and U2 = (D2 (*) S)|_band), adds
/// conj(vals) .* (scale U [+ scale2 U2]) / N^2 into `accum` when non-null
/// and returns the wns pairing (1/N^2) Re <S, U>.
template <bool kTwoSeeds>
double naive_band_conv(const sim::BandRef& band, const ComplexGrid& o,
                       const std::complex<double>* dd,
                       const std::complex<double>* dd2, double scale,
                       double scale2, std::size_t n,
                       std::vector<std::complex<double>>* u_out,
                       std::complex<double>* accum) {
  const std::uint32_t un = static_cast<std::uint32_t>(n);
  const double nn = static_cast<double>(n) * static_cast<double>(n);
  const double inv_n2 = 1.0 / (nn * nn);
  const std::size_t nb = band.nbins;
  std::vector<std::complex<double>> sval(nb);
  std::vector<std::uint32_t> brow(nb);
  std::vector<std::uint32_t> bcol(nb);
  for (std::size_t i = 0; i < nb; ++i) {
    const std::uint32_t bin = band.bins[i];
    brow[i] = bin / un;
    bcol[i] = bin % un;
    sval[i] =
        band.vals != nullptr ? o.data()[bin] * band.vals[i] : o.data()[bin];
  }
  if (u_out != nullptr) u_out->clear();
  const double go_fac = scale * inv_n2;
  const double go_fac2 = scale2 * inv_n2;
  double wacc = 0.0;
  for (std::size_t i = 0; i < nb; ++i) {
    const std::uint32_t ri = brow[i];
    const std::uint32_t ci = bcol[i];
    std::complex<double> u{};
    std::complex<double> u2{};
    for (std::size_t j = 0; j < nb; ++j) {
      const std::uint32_t dr = ri >= brow[j] ? ri - brow[j] : ri + un - brow[j];
      const std::uint32_t dc = ci >= bcol[j] ? ci - bcol[j] : ci + un - bcol[j];
      const std::size_t at = std::size_t{dr} * n + dc;
      u += sval[j] * dd[at];
      if constexpr (kTwoSeeds) u2 += sval[j] * dd2[at];
    }
    if (u_out != nullptr) {
      u_out->push_back(u);
      if constexpr (kTwoSeeds) u_out->push_back(u2);
    }
    wacc += sval[i].real() * u.real() + sval[i].imag() * u.imag();
    if (accum != nullptr) {
      const std::complex<double> v = band.vals != nullptr
                                         ? std::conj(band.vals[i])
                                         : std::complex<double>{1.0, 0.0};
      if constexpr (kTwoSeeds) {
        accum[band.bins[i]] += v * (u * go_fac + u2 * go_fac2);
      } else {
        accum[band.bins[i]] += v * u * go_fac;
      }
    }
  }
  return wacc * inv_n2;
}

TEST(FftKernels, BandConvMatchesModuloGatherBitwise) {
  // The kernel op against the oracle loop, through a full-period window:
  // bins lifted to [0, n) per axis, offsets r * (2n - 1) + c, and offset
  // (dr, dc) holding D[dr mod n, dc mod n] for |dr|, |dc| < n.
  for (const std::size_t n : {64, 96, 128}) {
    Rng rng(200 + n);
    const ComplexGrid o = random_complex_grid(rng, n, n);
    const ComplexGrid d = random_complex_grid(rng, n, n);
    const ComplexGrid d2 = random_complex_grid(rng, n, n);
    const std::size_t side = 2 * n - 1;
    for (const std::size_t seeds : {1, 2}) {
      std::vector<std::complex<double>> window(side * side * seeds);
      for (std::size_t wr = 0; wr < side; ++wr) {
        for (std::size_t wc = 0; wc < side; ++wc) {
          const std::size_t at = ((wr + 1) % n) * n + (wc + 1) % n;
          window[(wr * side + wc) * seeds] = d.data()[at];
          if (seeds == 2) window[(wr * side + wc) * seeds + 1] = d2.data()[at];
        }
      }
      const std::complex<double>* center =
          window.data() + ((n - 1) * side + (n - 1)) * seeds;
      for (const ConvBand& band : conv_bands(n)) {
        const sim::BandRef ref = band.ref();
        ASSERT_EQ(ref.nbins % 2, 1u);  // no SIMD bin block divides it
        std::vector<std::complex<double>> expect;
        if (seeds == 2) {
          naive_band_conv<true>(ref, o, d.data(), d2.data(), 0.0, 0.0, n,
                                &expect, nullptr);
        } else {
          naive_band_conv<false>(ref, o, d.data(), nullptr, 0.0, 0.0, n,
                                 &expect, nullptr);
        }
        std::vector<std::complex<double>> s(ref.nbins);
        std::vector<std::int32_t> off(ref.nbins);
        for (std::size_t i = 0; i < ref.nbins; ++i) {
          const std::uint32_t bin = ref.bins[i];
          s[i] = ref.vals != nullptr ? o.data()[bin] * ref.vals[i]
                                     : o.data()[bin];
          off[i] = static_cast<std::int32_t>((bin / n) * side + bin % n);
        }
        for (const std::string& name : fft::available_backends()) {
          BackendGuard guard(name);
          ASSERT_TRUE(guard.ok()) << name;
          std::vector<std::complex<double>> u(ref.nbins * seeds);
          fft::active_kernel().band_conv(s.data(), off.data(), ref.nbins,
                                         center, seeds, u.data());
          std::size_t mismatches = 0;
          for (std::size_t i = 0; i < u.size(); ++i) {
            mismatches += same_bits(u[i], expect[i]) ? 0 : 1;
          }
          EXPECT_EQ(mismatches, 0u)
              << name << " n=" << n << " seeds=" << seeds
              << " nbins=" << ref.nbins;
        }
      }
    }
  }
}

TEST(FftKernels, XcorrAccumulateMatchesOracleBitwise) {
  // Every backend against the term-by-term oracle of the op's contract,
  // on segment lengths that leave every lag-block remainder, with random
  // values already in `out` and zero padding around `x`.
  Rng rng(91);
  const std::size_t pad = fft::kXcorrPad;
  for (const std::size_t nx : {1, 2, 3, 4, 5, 7, 8, 15, 29}) {
    for (const std::size_t ny : {1, 3, 4, 6, 15, 29}) {
      std::vector<std::complex<double>> x(nx + 2 * pad);
      std::vector<std::complex<double>> y(ny);
      std::vector<std::complex<double>> out0(nx + ny - 1);
      for (std::size_t i = 0; i < nx; ++i) {
        x[pad + i] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
      }
      for (auto& v : y) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
      for (auto& v : out0) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
      // Lag k lives at out0[ny - 1 + k].
      std::vector<std::complex<double>> expect = out0;
      for (std::ptrdiff_t k = 1 - static_cast<std::ptrdiff_t>(ny);
           k < static_cast<std::ptrdiff_t>(nx); ++k) {
        double re = 0.0;
        double im = 0.0;
        std::complex<double> ref = 0.0;
        for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(ny); ++j) {
          if (j + k < 0 || j + k >= static_cast<std::ptrdiff_t>(nx)) continue;
          const double sr = y[j].real();
          const double si = -y[j].imag();
          const std::complex<double> w = x[pad + j + k];
          re += sr * w.real() - si * w.imag();
          im += sr * w.imag() + si * w.real();
          ref += w * std::conj(y[j]);
        }
        std::complex<double>& e = expect[ny - 1 + k];
        EXPECT_LT(std::abs(std::complex<double>(re, im) - ref), 1e-13);
        e = {e.real() + re, e.imag() + im};
      }
      for (const std::string& name : fft::available_backends()) {
        BackendGuard guard(name);
        ASSERT_TRUE(guard.ok()) << name;
        std::vector<std::complex<double>> got = out0;
        fft::active_kernel().xcorr_accumulate(x.data() + pad, nx, y.data(),
                                              ny, got.data() + ny - 1);
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < got.size(); ++i) {
          mismatches += same_bits(got[i], expect[i]) ? 0 : 1;
        }
        EXPECT_EQ(mismatches, 0u) << name << " nx=" << nx << " ny=" << ny;
      }
    }
  }
}

/// An imaging model over explicit test bands (serial, own workspaces), so
/// sim::adjoint_pass runs the band convolution on any band shape.
class BandModel : public sim::ImagingModel {
 public:
  BandModel(std::size_t n, std::vector<ConvBand> bands)
      : n_(n), bands_(std::move(bands)) {}
  std::size_t grid_dim() const noexcept override { return n_; }
  std::size_t components() const noexcept override { return bands_.size(); }
  sim::BandRef component_band(std::size_t c) const override {
    return bands_[c].ref();
  }
  ThreadPool* pool() const noexcept override { return nullptr; }
  sim::WorkspaceSet& workspaces() const override { return set_; }

 private:
  std::size_t n_;
  std::vector<ConvBand> bands_;
  mutable sim::WorkspaceSet set_;
};

TEST(FftKernels, BandConvAdjointPassMatchesModuloGatherBitwise) {
  // adjoint_pass (the per-pass window, the kernel op, the wns pairing, the
  // g_O scatter and the slot-order combine) against the oracle loop run
  // over the same slot partition: g_O and wns agree bit for bit, with one
  // seed and with two, on every backend.
  for (const std::size_t n : {64, 96, 128}) {
    const BandModel model(n, conv_bands(n));
    ASSERT_TRUE(sim::adjoint_uses_band_conv(model)) << n;
    // More items than reduction slots, so some slots run several.
    std::vector<sim::AdjointItem> items(3 * model.components() + 2);
    for (std::size_t k = 0; k < items.size(); ++k) {
      items[k].component = static_cast<std::uint32_t>(k % model.components());
      items[k].scale = 0.1 + 0.05 * static_cast<double>(k);
      items[k].scale2 = -0.3 + 0.02 * static_cast<double>(k);
      items[k].mask = k % 3 != 1;
    }
    ASSERT_GT(items.size(), kReductionSlots);
    Rng rng(300 + n);
    const ComplexGrid o = random_complex_grid(rng, n, n);
    RealGrid seed(n, n);
    RealGrid seed2(n, n);
    for (auto& v : seed) v = rng.uniform(-1.0, 1.0);
    for (auto& v : seed2) v = rng.uniform(-1.0, 1.0);

    for (const std::string& name : fft::available_backends()) {
      BackendGuard guard(name);
      ASSERT_TRUE(guard.ok()) << name;
      ComplexGrid d = to_complex(seed);
      fft2(d);
      ComplexGrid d2 = to_complex(seed2);
      fft2(d2);
      for (const bool two : {false, true}) {
        // The oracle over adjoint_pass's slot partition and combine order.
        const std::size_t slots = reduction_slots(items.size());
        ComplexGrid expect_go(n, n);
        std::vector<double> expect_wns(items.size(), 0.0);
        for (std::size_t s = 0; s < slots; ++s) {
          ComplexGrid part(n, n);
          const SlotRange range = slot_range(s, slots, items.size());
          for (std::size_t k = range.begin; k < range.end; ++k) {
            const sim::AdjointItem& it = items[k];
            if (two && !it.mask) continue;
            std::complex<double>* accum = it.mask ? part.data() : nullptr;
            const sim::BandRef band = model.component_band(it.component);
            expect_wns[k] =
                two ? naive_band_conv<true>(band, o, d.data(), d2.data(),
                                            it.scale, it.scale2, n, nullptr,
                                            accum)
                    : naive_band_conv<false>(band, o, d.data(), nullptr,
                                             it.scale, 0.0, n, nullptr,
                                             accum);
          }
          for (std::size_t i = 0; i < part.size(); ++i) {
            expect_go[i] += part[i];
          }
        }
        std::vector<double> wns;
        const ComplexGrid go =
            two ? sim::adjoint_pass(model, o, seed, items, nullptr, &seed2)
                : sim::adjoint_pass(model, o, seed, items, &wns);
        ASSERT_EQ(go.size(), expect_go.size()) << name;
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < go.size(); ++i) {
          mismatches += same_bits(go[i], expect_go[i]) ? 0 : 1;
        }
        EXPECT_EQ(mismatches, 0u) << name << " n=" << n << " two=" << two;
        if (!two) {
          ASSERT_EQ(wns.size(), items.size());
          for (std::size_t k = 0; k < items.size(); ++k) {
            EXPECT_TRUE(same_bits(wns[k], expect_wns[k]))
                << name << " n=" << n << " item " << k << ": " << wns[k]
                << " vs " << expect_wns[k];
          }
        }
      }
    }
  }
}

// ---- Gradcheck under every compiled backend --------------------------------

TEST(FftKernels, GradcheckPassesUnderEveryBackend) {
  OpticsConfig optics;
  optics.mask_dim = 32;
  optics.pixel_nm = 16.0;
  RealGrid target(32, 32, 0.0);
  for (std::size_t r = 12; r < 20; ++r) {
    for (std::size_t c = 6; c < 26; ++c) target(r, c) = 1.0;
  }

  for (const std::string& name : fft::available_backends()) {
    BackendGuard guard(name);
    ASSERT_TRUE(guard.ok()) << name;

    const SourceGeometry geometry(7, optics);
    const AbbeImaging abbe(optics, geometry);
    const AbbeGradientEngine engine(abbe, target);

    Rng rng(555);
    RealGrid theta_m = init_mask_params(target, {});
    for (auto& v : theta_m) v += rng.uniform(-0.3, 0.3);
    SourceSpec spec;
    RealGrid theta_j = init_source_params(make_source(geometry, spec), {});
    for (auto& v : theta_j) v += rng.uniform(-0.5, 0.5);

    const SmoGradient g = engine.evaluate(theta_m, theta_j, GradRequest{});
    auto loss_m = [&](const RealGrid& tm) {
      return engine.loss_only(tm, theta_j).total;
    };
    const GradCheckResult rm =
        check_gradient(loss_m, theta_m, g.grad_theta_m, rng, 12, 1e-4);
    EXPECT_LT(rm.max_rel_error, 1e-3) << name;

    auto loss_j = [&](const RealGrid& tj) {
      return engine.loss_only(theta_m, tj).total;
    };
    const GradCheckResult rj =
        check_gradient(loss_j, theta_j, g.grad_theta_j, rng, 12, 1e-4);
    EXPECT_LT(rj.max_rel_error, 1e-3) << name;
  }
}

// ---- Imaging-path equivalence across backends ------------------------------

TEST(FftKernels, AerialImageAgreesAcrossBackends) {
  OpticsConfig optics;
  optics.mask_dim = 64;
  optics.pixel_nm = 8.0;
  RealGrid target(64, 64, 0.0);
  for (std::size_t r = 28; r < 36; ++r) {
    for (std::size_t c = 8; c < 56; ++c) target(r, c) = 1.0;
  }

  RealGrid ref;
  bool have_ref = false;
  for (const std::string& name : fft::available_backends()) {
    BackendGuard guard(name);
    ASSERT_TRUE(guard.ok()) << name;
    const SourceGeometry geometry(9, optics);
    const AbbeImaging abbe(optics, geometry);
    SourceSpec spec;
    const RealGrid j = make_source(geometry, spec);
    ComplexGrid o = to_complex(target);
    fft2(o);
    const RealGrid intensity = abbe.aerial(o, j).intensity;
    if (!have_ref) {
      ref = intensity;
      have_ref = true;
      continue;
    }
    double max_diff = 0.0;
    double scale = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      max_diff = std::max(max_diff, std::abs(intensity[i] - ref[i]));
      scale = std::max(scale, std::abs(ref[i]));
    }
    EXPECT_LE(max_diff, 1e-12 * std::max(scale, 1.0)) << name;
  }
}

}  // namespace
}  // namespace bismo

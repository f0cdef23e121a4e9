// FFT backend equivalence suite: every compiled kernel backend (scalar,
// AVX2) must agree with the scalar reference to <= 1e-12 relative
// error, satisfy the round-trip property across power-of-two, odd/prime
// (Bluestein), and rectangular shapes, be run-to-run deterministic, and
// pass gradient checks end to end.  The elementwise kernel ops the imaging
// engines use are validated against plain double references.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <string>
#include <vector>

#include "fft/fft.hpp"
#include "fft/kernels/kernel.hpp"
#include "grad/abbe_grad.hpp"
#include "grad/gradcheck.hpp"
#include "litho/abbe.hpp"
#include "litho/activation.hpp"
#include "math/grid_ops.hpp"
#include "math/rng.hpp"
#include "test_util.hpp"

namespace bismo {
namespace {

using testing::random_complex_grid;

/// Pin a backend for one test and restore the previously active backend
/// afterwards (so a BISMO_FFT_BACKEND pin keeps governing other tests when
/// several run in one process).
class BackendGuard {
 public:
  explicit BackendGuard(const std::string& name)
      : previous_(fft::backend_name()) {
    ok_ = fft::set_backend(name);
  }
  ~BackendGuard() { fft::set_backend(previous_); }
  bool ok() const noexcept { return ok_; }

 private:
  std::string previous_;
  bool ok_ = false;
};

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

/// Shapes covering radix-4 (even log2), radix-2+4 (odd log2), Bluestein
/// (odd/prime), and rectangular mixes of all three.
const std::vector<std::pair<std::size_t, std::size_t>>& test_shapes() {
  static const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {4, 4},  {8, 8},   {16, 16}, {32, 32}, {64, 64}, {128, 128},
      {7, 7},  {31, 31}, {12, 20}, {16, 12}, {5, 64},  {64, 5},
      {2, 2},  {1, 1},   {8, 32},
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
          {16, 16}}) {
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
    Rng rng(77);
    const ComplexGrid g = random_complex_grid(rng, 64, 64);
    const ComplexGrid first = fft2_copy(g);
    const ComplexGrid second = fft2_copy(g);
    EXPECT_EQ(first, second) << name;  // bitwise
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
    kernel.cmul_inplace(got.data(), b.data(), n, /*conj_b=*/true);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LT(std::abs(got[i] - a[i] * std::conj(b[i])), 1e-12) << name;
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

    std::vector<double> acc(n, 0.5);
    kernel.accumulate_norm(acc.data(), a.data(), n, 1.5);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(acc[i], 0.5 + 1.5 * std::norm(a[i]), 1e-12) << name;
    }

    double ref_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) ref_sum += w[i] * std::norm(a[i]);
    EXPECT_NEAR(kernel.weighted_norm_sum(w.data(), a.data(), n), ref_sum,
                1e-11 * n)
        << name;

    // Cached-image ops: a stored |a|^2 (accumulated at weight 1 into
    // zeros) re-accumulated through axpy_real reproduces accumulate_norm
    // bitwise, and dot_real over it matches weighted_norm_sum.
    std::vector<double> image(n, 0.0);
    kernel.accumulate_norm(image.data(), a.data(), n, 1.0);
    std::vector<double> direct(n, 0.5);
    std::vector<double> served(n, 0.5);
    kernel.accumulate_norm(direct.data(), a.data(), n, 0.37);
    kernel.axpy_real(served.data(), image.data(), n, 0.37);
    EXPECT_EQ(direct, served) << name;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(served[i], 0.5 + 0.37 * std::norm(a[i]), 1e-12) << name;
    }
    EXPECT_NEAR(kernel.dot_real(w.data(), image.data(), n), ref_sum,
                1e-11 * n)
        << name;
    double ref_dot = 0.0;
    for (std::size_t i = 0; i < n; ++i) ref_dot += w[i] * image[i];
    EXPECT_NEAR(kernel.dot_real(w.data(), image.data(), n), ref_dot,
                1e-12 * n)
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

// FFT kernel-layer bench: quantifies each layer of the transform speedup
// and emits BENCH_fft.json for perf-trajectory tracking.
//
// Comparisons, per size:
//   * legacy      -- the pre-kernel-layer engine: scalar radix-2 4-mul
//                    butterflies, one row at a time, per-column
//                    gather/scatter (reimplemented here as the baseline).
//   * scalar      -- the kernel layer's scalar backend: radix-4 stages,
//                    batched rows, lock-step whole-row column pass.
//   * simd        -- the AVX2 backend on the same path.
//   * per-row     -- the SIMD backend driven one row at a time with
//                    gather/scatter columns, isolating the batching/
//                    transpose win from the vector-arithmetic win.
//
// The acceptance bar for the kernel layer is simd-batched >= 2x legacy on
// power-of-two 2-D transforms; the JSON records the measured ratios plus a
// cross-backend agreement check so a silently-diverging backend fails loud.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fft/fft.hpp"
#include "fft/kernels/kernel.hpp"
#include "math/grid2d.hpp"
#include "math/rng.hpp"

namespace {

using namespace bismo;

// ---- legacy reference: the seed's scalar radix-2 engine ---------------------

namespace legacy {

struct Radix2Plan {
  std::size_t n = 0;
  std::vector<std::complex<double>> tw;
  std::vector<std::uint32_t> bitrev;
};

Radix2Plan make_plan(std::size_t n) {
  Radix2Plan plan;
  plan.n = n;
  plan.tw.resize(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double ang = -2.0 * M_PI * static_cast<double>(k) /
                       static_cast<double>(n);
    plan.tw[k] = {std::cos(ang), std::sin(ang)};
  }
  plan.bitrev.resize(n);
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t rev = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      rev |= ((i >> b) & 1u) << (bits - 1 - b);
    }
    plan.bitrev[i] = static_cast<std::uint32_t>(rev);
  }
  return plan;
}

void run(const Radix2Plan& plan, std::complex<double>* x, bool inverse) {
  const std::size_t n = plan.n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  auto* d = reinterpret_cast<double*>(x);
  const auto* tw = reinterpret_cast<const double*>(plan.tw.data());
  const double conj_sign = inverse ? -1.0 : 1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    const std::size_t step = n / len;
    for (std::size_t base = 0; base < n; base += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = tw[2 * k * step];
        const double wi = conj_sign * tw[2 * k * step + 1];
        const std::size_t a = 2 * (base + k);
        const std::size_t b = 2 * (base + k + half);
        const double xr = d[b];
        const double xi = d[b + 1];
        const double vr = xr * wr - xi * wi;
        const double vi = xr * wi + xi * wr;
        const double ur = d[a];
        const double ui = d[a + 1];
        d[a] = ur + vr;
        d[a + 1] = ui + vi;
        d[b] = ur - vr;
        d[b + 1] = ui - vi;
      }
    }
  }
}

/// Seed-style 2-D forward transform: one row at a time, then per-column
/// gather/scatter.
void fft2(const Radix2Plan& plan, ComplexGrid& g,
          std::vector<std::complex<double>>& col) {
  const std::size_t n = plan.n;
  for (std::size_t r = 0; r < n; ++r) {
    run(plan, g.data() + r * n, /*inverse=*/false);
  }
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = 0; r < n; ++r) col[r] = g(r, c);
    run(plan, col.data(), /*inverse=*/false);
    for (std::size_t r = 0; r < n; ++r) g(r, c) = col[r];
  }
}

}  // namespace legacy

// ---- timing harness ---------------------------------------------------------

/// Mean seconds per call of `fn`, after one warmup call, with enough
/// repetitions to cover ~80 ms of work.
template <typename Fn>
double time_per_call(const Fn& fn) {
  using Clock = std::chrono::steady_clock;
  fn();  // warmup (plans, caches)
  std::size_t reps = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) fn();
    const double sec =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (sec >= 0.08 || reps >= (std::size_t{1} << 20)) return sec / reps;
    reps = std::max(reps * 4, static_cast<std::size_t>(0.1 * reps / std::max(sec, 1e-9)));
  }
}

ComplexGrid random_grid(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  ComplexGrid g(n, n);
  for (auto& v : g) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return g;
}

double max_rel_diff(const ComplexGrid& a, const ComplexGrid& b) {
  double max_abs = 0.0;
  for (const auto& v : a) max_abs = std::max(max_abs, std::abs(v));
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  return max_abs > 0.0 ? max_diff / max_abs : max_diff;
}

/// SIMD backend name, or empty when only scalar is compiled/supported.
std::string simd_backend() {
  for (const std::string& name : fft::available_backends()) {
    if (name != "scalar") return name;
  }
  return {};
}

/// Fft2dPlan forward driven one row at a time plus gather/scatter columns:
/// the per-row execution pattern on the new kernels, to isolate the
/// batching/transpose win.
void per_row_forward(const Fft2dPlan& plan, ComplexGrid& g,
                     std::vector<std::complex<double>>& scratch,
                     std::vector<std::complex<double>>& col) {
  const std::size_t n = plan.rows();
  for (std::size_t r = 0; r < n; ++r) {
    plan.transform_row(g.data() + r * n, /*inverse=*/false, scratch.data());
  }
  Fft1dPlan col_plan(n);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = 0; r < n; ++r) col[r] = g(r, c);
    col_plan.transform(col.data(), /*inverse=*/false, scratch.data() + n);
    for (std::size_t r = 0; r < n; ++r) g(r, c) = col[r];
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  args.print_banner("bench_fft");
  bench::BenchReport report("fft", args);

  const std::string simd = simd_backend();
  std::printf("FFT backends available:");
  for (const std::string& name : fft::available_backends()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("  (SIMD: %s)\n\n", simd.empty() ? "none" : simd.c_str());

  // ---- 2-D power-of-two sweep: the acceptance comparison -------------------
  bool met_2x = true;
  for (const std::size_t n : {std::size_t{64}, std::size_t{128},
                              std::size_t{256}, std::size_t{512},
                              std::size_t{1024}}) {
    const ComplexGrid base = random_grid(n, 1000 + n);
    const legacy::Radix2Plan lplan = legacy::make_plan(n);
    const Fft2dPlan plan(n, n);
    std::vector<std::complex<double>> col(n);
    std::vector<std::complex<double>> scratch(plan.scratch_size());

    ComplexGrid work = base;
    const double t_legacy = time_per_call([&] {
      work = base;
      legacy::fft2(lplan, work, col);
    });
    const ComplexGrid ref = work;  // legacy forward result

    fft::set_backend("scalar");
    const double t_scalar = time_per_call([&] {
      work = base;
      plan.forward(work, scratch.data());
    });
    const double agree_scalar = max_rel_diff(work, ref);

    double t_simd = t_scalar;
    double t_per_row = t_scalar;
    double agree_simd = 0.0;
    if (!simd.empty()) {
      fft::set_backend(simd);
      t_simd = time_per_call([&] {
        work = base;
        plan.forward(work, scratch.data());
      });
      agree_simd = max_rel_diff(work, ref);
      t_per_row = time_per_call([&] {
        work = base;
        per_row_forward(plan, work, scratch, col);
      });
    }
    fft::set_backend("auto");

    const double speedup = t_legacy / t_simd;
    if (speedup < 2.0) met_2x = false;
    std::printf(
        "2-D %4zux%-4zu  legacy %9.1f us  scalar %9.1f us  %s %9.1f us  "
        "per-row %9.1f us  simd-vs-legacy %.2fx  agree %.1e\n",
        n, n, 1e6 * t_legacy, 1e6 * t_scalar,
        simd.empty() ? "simd(n/a)" : simd.c_str(), 1e6 * t_simd,
        1e6 * t_per_row, speedup, std::max(agree_scalar, agree_simd));
    report.add("fft2_" + std::to_string(n),
               {{"us_legacy_radix2_per_row", 1e6 * t_legacy},
                {"us_scalar_batched", 1e6 * t_scalar},
                {"us_simd_batched", 1e6 * t_simd},
                {"us_simd_per_row", 1e6 * t_per_row},
                {"speedup_simd_batched_vs_legacy", t_legacy / t_simd},
                {"speedup_scalar_batched_vs_legacy", t_legacy / t_scalar},
                {"speedup_batched_vs_per_row", t_per_row / t_simd},
                {"max_rel_diff_vs_legacy",
                 std::max(agree_scalar, agree_simd)}});
  }

  // ---- 2-D Bluestein (non-power-of-two) sweep ------------------------------
  for (const std::size_t n : {std::size_t{96}, std::size_t{100}}) {
    const ComplexGrid base = random_grid(n, 2000 + n);
    const Fft2dPlan plan(n, n);
    std::vector<std::complex<double>> scratch(plan.scratch_size());
    ComplexGrid work = base;

    fft::set_backend("scalar");
    const double t_scalar = time_per_call([&] {
      work = base;
      plan.forward(work, scratch.data());
    });
    const ComplexGrid ref = work;
    double t_simd = t_scalar;
    double agree = 0.0;
    if (!simd.empty()) {
      fft::set_backend(simd);
      t_simd = time_per_call([&] {
        work = base;
        plan.forward(work, scratch.data());
      });
      agree = max_rel_diff(work, ref);
    }
    fft::set_backend("auto");
    std::printf(
        "2-D %4zux%-4zu (Bluestein)  scalar %9.1f us  simd %9.1f us  "
        "%.2fx  agree %.1e\n",
        n, n, 1e6 * t_scalar, 1e6 * t_simd, t_scalar / t_simd, agree);
    report.add("fft2_bluestein_" + std::to_string(n),
               {{"us_scalar", 1e6 * t_scalar},
                {"us_simd", 1e6 * t_simd},
                {"speedup_simd_vs_scalar", t_scalar / t_simd},
                {"max_rel_diff_scalar_vs_simd", agree}});
  }

  // ---- 1-D radix-2 vs radix-4 vs SIMD --------------------------------------
  for (const std::size_t n : {std::size_t{64}, std::size_t{256},
                              std::size_t{1024}}) {
    std::vector<std::complex<double>> base(n);
    Rng rng(3000 + n);
    for (auto& v : base) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const legacy::Radix2Plan lplan = legacy::make_plan(n);
    const Fft1dPlan plan(n);
    std::vector<std::complex<double>> work = base;

    const double t_legacy = time_per_call([&] {
      work = base;
      legacy::run(lplan, work.data(), false);
    });
    fft::set_backend("scalar");
    const double t_scalar = time_per_call([&] {
      work = base;
      plan.transform(work.data(), false);
    });
    double t_simd = t_scalar;
    if (!simd.empty()) {
      fft::set_backend(simd);
      t_simd = time_per_call([&] {
        work = base;
        plan.transform(work.data(), false);
      });
    }
    fft::set_backend("auto");
    std::printf(
        "1-D %5zu  radix2 %8.2f us  radix4 %8.2f us  simd %8.2f us  "
        "simd-vs-radix2 %.2fx\n",
        n, 1e6 * t_legacy, 1e6 * t_scalar, 1e6 * t_simd, t_legacy / t_simd);
    report.add("fft1_" + std::to_string(n),
               {{"us_legacy_radix2", 1e6 * t_legacy},
                {"us_scalar_radix4", 1e6 * t_scalar},
                {"us_simd_radix4", 1e6 * t_simd},
                {"speedup_simd_vs_radix2", t_legacy / t_simd}});
  }

  const std::string path = report.write();
  if (!path.empty()) std::printf("\nwrote %s\n", path.c_str());
  std::printf("2x acceptance on power-of-two 2-D transforms: %s\n",
              met_2x ? "MET" : "NOT MET");
  return met_2x ? 0 : 1;
}

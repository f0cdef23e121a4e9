// Fused-pipeline A/B bench: the same serial dual-gradient workload as
// BM_AbbeDualGradientBackend (bench_micro), evaluated per FFT backend in
// both pipeline modes --
//
//   staged -- sim::set_fusion_enabled(false): per-stage reference chains
//             (gather, transform, epilogue as separate kernel sweeps,
//             forward recompute in the backward pass),
//   fused  -- plan-time-specialized kernel chains (sim/pipeline.hpp):
//             bit-reversal gather + cotangent seeding folded into the
//             first column stage, the scale and |field|^2 epilogues
//             into the last, per-evaluation field capture, the
//             band-restricted direct adjoint for narrow pass-bands, and
//             the image cache's autocorrelation fill (staged mode fills
//             through the forward chains).
//
// Before timing, both modes are checked for agreement (loss and both
// gradients) -- a mismatch is a hard failure.  The bench FAILS (non-zero
// exit) when a SIMD backend is available and its fused dual-gradient
// speedup at the primary size falls under the 1.5x gate this refactor
// ships against; on scalar-only hosts the gate is advisory.
//
// Results land in BENCH_fused.json.  `--quick` runs the primary size
// only with fewer repetitions for CI smoke runs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fft/fft.hpp"
#include "grad/abbe_grad.hpp"
#include "io/table.hpp"
#include "math/grid_ops.hpp"
#include "sim/pipeline.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double time_ms(const std::function<void()>& fn, int reps) {
  fn();  // warm-up (plans, workspaces, caches)
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) fn();
  return std::chrono::duration<double>(Clock::now() - t0).count() * 1e3 /
         reps;
}

bismo::OpticsConfig optics_for(std::size_t n) {
  bismo::OpticsConfig o;
  o.mask_dim = n;
  o.pixel_nm = 8.0;
  return o;
}

bismo::RealGrid bench_target(std::size_t n) {
  bismo::RealGrid t(n, n, 0.0);
  for (std::size_t r = n / 2 - 2; r < n / 2 + 2; ++r) {
    for (std::size_t c = n / 8; c < 7 * n / 8; ++c) t(r, c) = 1.0;
  }
  return t;
}

double max_abs_diff(const bismo::RealGrid& a, const bismo::RealGrid& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

/// Restore the process fusion mode and FFT backend on scope exit.
struct GlobalModeGuard {
  bool fusion = bismo::sim::fusion_enabled();
  std::string backend = bismo::fft::backend_name();
  ~GlobalModeGuard() {
    bismo::sim::set_fusion_enabled(fusion);
    bismo::fft::set_backend(backend);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace bismo;
  using namespace bismo::bench;

  // --quick is this bench's own flag; strip it before the shared parser
  // (which exits on flags it does not know).
  bool quick = false;
  std::vector<char*> filtered;
  filtered.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      continue;
    }
    filtered.push_back(argv[i]);
  }
  BenchArgs args =
      BenchArgs::parse(static_cast<int>(filtered.size()), filtered.data());
  args.print_banner("fused pipelines: staged vs plan-specialized chains");

  GlobalModeGuard restore;
  BenchReport report("fused", args);
  TablePrinter table(
      {"backend", "n", "staged ms", "fused ms", "speedup", "gate"});

  std::vector<std::string> backends = {"scalar"};
  for (const std::string& b : fft::available_backends()) {
    if (b != "scalar") {
      backends.push_back(b);
      break;  // scalar + the best SIMD backend
    }
  }
  const bool have_simd = backends.size() > 1;

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{64} : std::vector<std::size_t>{64, 128};
  constexpr double kGate = 1.5;
  constexpr std::size_t kGateSize = 64;  // the primary (gated) size

  bool gate_ok = true;
  bool agree_ok = true;
  for (const std::string& backend : backends) {
    fft::set_backend(backend);
    for (const std::size_t n : sizes) {
      const OpticsConfig optics = optics_for(n);
      const SourceGeometry geometry(9, optics);
      const AbbeImaging abbe(optics, geometry);
      const RealGrid target = bench_target(n);
      const AbbeGradientEngine engine(abbe, target);
      const RealGrid theta_m = init_mask_params(target, {});
      SourceSpec spec;
      const RealGrid theta_j =
          init_source_params(make_source(geometry, spec), {});
      // The engine serves repeated calls at one theta_M from its image
      // cache.  Alternating between two masks makes every timed call a
      // cache fill, so the A/B times the fills and the adjoint, not the
      // cache hits.
      const RealGrid theta_m_alt = theta_m * 0.999;
      bool alt = false;
      const auto evaluate = [&] {
        alt = !alt;
        const SmoGradient g = engine.evaluate(alt ? theta_m_alt : theta_m,
                                              theta_j, GradRequest{});
        static volatile double sink;
        sink = g.loss;
      };

      // Cross-mode agreement before any timing: the fused chains and the
      // band-restricted direct adjoint must reproduce the staged
      // reference to rounding noise.  A fresh engine per mode keeps the
      // comparison independent of any cached images.
      const auto gradient_in_mode = [&](bool fused) {
        sim::set_fusion_enabled(fused);
        const AbbeGradientEngine fresh(abbe, target);
        return fresh.evaluate(theta_m, theta_j, GradRequest{});
      };
      const SmoGradient staged_g = gradient_in_mode(false);
      const SmoGradient fused_g = gradient_in_mode(true);
      const double diff = std::max(
          {std::abs(staged_g.loss - fused_g.loss),
           max_abs_diff(staged_g.grad_theta_m, fused_g.grad_theta_m),
           max_abs_diff(staged_g.grad_theta_j, fused_g.grad_theta_j)});
      if (diff > 1e-9) {
        std::printf("FAIL: %s n=%zu fused/staged gradient mismatch %.3e\n",
                    backend.c_str(), n, diff);
        agree_ok = false;
      }

      const int reps = quick ? 5 : (n <= 64 ? 20 : 8);
      sim::set_fusion_enabled(false);
      const double staged_ms = time_ms(evaluate, reps);
      sim::set_fusion_enabled(true);
      const double fused_ms = time_ms(evaluate, reps);
      const double speedup = staged_ms / fused_ms;

      const bool gated =
          have_simd && backend != "scalar" && n == kGateSize;
      if (gated && speedup < kGate) gate_ok = false;
      table.add_row({backend, std::to_string(n),
                     TablePrinter::num(staged_ms, 2),
                     TablePrinter::num(fused_ms, 2),
                     TablePrinter::num(speedup, 2) + "x",
                     gated ? (speedup >= kGate ? "pass" : "FAIL")
                           : "advisory"});
      report.add(backend + "/" + std::to_string(n),
                 {{"staged_ms", staged_ms},
                  {"fused_ms", fused_ms},
                  {"speedup", speedup},
                  {"gated", gated ? 1.0 : 0.0},
                  {"grad_max_diff", diff}});
    }
  }
  table.print(std::cout);
  report.write();

  if (!agree_ok) {
    std::printf("FAIL: fused pipelines disagree with the staged reference\n");
    return 1;
  }
  if (!gate_ok) {
    std::printf("FAIL: fused dual-gradient speedup under the %.1fx gate on "
                "the SIMD backend\n",
                kGate);
    return 1;
  }
  if (!have_simd) {
    std::printf("note: scalar-only host, %.1fx gate advisory\n", kGate);
  }
  return 0;
}

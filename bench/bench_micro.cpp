// Engineering micro-benchmarks (google-benchmark): throughput of the
// substrates every experiment sits on -- FFTs, Abbe/Hopkins forward
// imaging, manual gradients, the per-point image cache (its two fills and
// its serving), exact HVPs and the BiSMO hypergradient step (against its
// finite-difference predecessor), and the TCC/SOCS build.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "fft/fft.hpp"
#include "fft/kernels/kernel.hpp"
#include "grad/abbe_grad.hpp"
#include "grad/gradcheck.hpp"
#include "grad/hvp.hpp"
#include "litho/hopkins.hpp"
#include "math/grid_ops.hpp"
#include "math/rng.hpp"
#include "sim/imaging_model.hpp"
#include "sim/source_image_cache.hpp"
#include "tests/imaging_reference.hpp"

namespace {

using namespace bismo;

/// Pin the FFT kernel backend for one benchmark run: range value 0 selects
/// scalar, 1 the best SIMD backend (falls back to scalar when none is
/// available, so the comparison degenerates gracefully).  Restores the
/// previously active backend on destruction, so a BISMO_FFT_BACKEND pin
/// keeps governing the non-Backend benchmarks.
class BackendGuard {
 public:
  explicit BackendGuard(benchmark::State& state)
      : previous_(fft::backend_name()) {
    std::string name = "scalar";
    if (state.range(0) != 0) {
      for (const std::string& b : fft::available_backends()) {
        if (b != "scalar") {
          name = b;
          break;
        }
      }
    }
    fft::set_backend(name);
    state.SetLabel(fft::backend_name());
  }
  ~BackendGuard() { fft::set_backend(previous_); }

 private:
  std::string previous_;
};

OpticsConfig optics_for(std::size_t n) {
  OpticsConfig o;
  o.mask_dim = n;
  o.pixel_nm = 8.0;
  return o;
}

RealGrid bench_target(std::size_t n) {
  RealGrid t(n, n, 0.0);
  for (std::size_t r = n / 2 - 2; r < n / 2 + 2; ++r) {
    for (std::size_t c = n / 8; c < 7 * n / 8; ++c) t(r, c) = 1.0;
  }
  return t;
}

void BM_Fft2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  ComplexGrid g(n, n);
  for (auto& v : g) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (auto _ : state) {
    fft2(g);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n * n));
}
BENCHMARK(BM_Fft2)
    ->Arg(64)
    ->Arg(96)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

/// Legacy aerial evaluation: the per-point reference
/// (tests/imaging_reference.hpp) -- one ComplexGrid allocation and
/// free-function (plan-cache-locking) IFFT per source point.  Kept as the
/// baseline the workspace speedup is tracked against; compare
/// BM_AbbeAerialLegacy vs BM_AbbeAerialWorkspace in BENCH_*.json.
RealGrid legacy_aerial(const AbbeImaging& abbe, const ComplexGrid& o,
                       const RealGrid& j) {
  const auto& pts = abbe.geometry().points();
  std::vector<std::uint32_t> comps;
  std::vector<double> weights;
  double total_weight = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double w = j(pts[i].row, pts[i].col);
    total_weight += w;
    if (w <= 1e-9) continue;
    comps.push_back(static_cast<std::uint32_t>(i));
    weights.push_back(w);
  }
  RealGrid intensity = reference::intensity(abbe, o, comps, weights);
  intensity *= 1.0 / total_weight;
  return intensity;
}

void BM_AbbeAerialLegacy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const OpticsConfig optics = optics_for(n);
  const SourceGeometry geometry(9, optics);
  const AbbeImaging abbe(optics, geometry);
  SourceSpec spec;
  const RealGrid j = make_source(geometry, spec);
  ComplexGrid o = to_complex(bench_target(n));
  fft2(o);
  for (auto _ : state) {
    const RealGrid i = legacy_aerial(abbe, o, j);
    benchmark::DoNotOptimize(i.data());
  }
}
BENCHMARK(BM_AbbeAerialLegacy)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_AbbeAerialWorkspace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const OpticsConfig optics = optics_for(n);
  const SourceGeometry geometry(9, optics);
  const AbbeImaging abbe(optics, geometry);
  SourceSpec spec;
  const RealGrid j = make_source(geometry, spec);
  ComplexGrid o = to_complex(bench_target(n));
  fft2(o);
  for (auto _ : state) {
    const AbbeAerial a = abbe.aerial(o, j);
    benchmark::DoNotOptimize(a.intensity.data());
  }
}
BENCHMARK(BM_AbbeAerialWorkspace)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

/// 2-D plan transform by backend (arg2: 0 = scalar, 1 = SIMD): the kernel-
/// layer speedup in isolation.
void BM_Fft2PlanBackend(benchmark::State& state) {
  BackendGuard backend(state);
  const auto n = static_cast<std::size_t>(state.range(1));
  Rng rng(4);
  ComplexGrid g(n, n);
  for (auto& v : g) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const Fft2dPlan plan(n, n);
  std::vector<std::complex<double>> scratch(plan.scratch_size());
  for (auto _ : state) {
    plan.forward(g, scratch.data());
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n * n));
}
BENCHMARK(BM_Fft2PlanBackend)
    ->Args({0, 128})
    ->Args({1, 128})
    ->Args({0, 256})
    ->Args({1, 256})
    ->Unit(benchmark::kMicrosecond);

/// End-to-end dual gradient (forward + adjoint sweeps) by backend: the
/// aggregate aerial/gradient win of the SIMD kernel layer.
void BM_AbbeDualGradientBackend(benchmark::State& state) {
  BackendGuard backend(state);
  const auto n = static_cast<std::size_t>(state.range(1));
  const OpticsConfig optics = optics_for(n);
  const SourceGeometry geometry(9, optics);
  const AbbeImaging abbe(optics, geometry);
  const RealGrid target = bench_target(n);
  const AbbeGradientEngine engine(abbe, target);
  const RealGrid theta_m = init_mask_params(target, {});
  // Two alternating masks: every iteration misses the engine's image
  // cache, so the dual gradient runs its forward and adjoint chains.
  const RealGrid theta_m_alt = theta_m * 0.999;
  SourceSpec spec;
  const RealGrid theta_j = init_source_params(make_source(geometry, spec), {});
  bool alt = false;
  for (auto _ : state) {
    alt = !alt;
    const SmoGradient g = engine.evaluate(alt ? theta_m_alt : theta_m, theta_j,
                                          GradRequest{});
    benchmark::DoNotOptimize(g.loss);
  }
}
BENCHMARK(BM_AbbeDualGradientBackend)
    ->Args({0, 64})
    ->Args({1, 64})
    ->Args({0, 128})
    ->Args({1, 128})
    ->Unit(benchmark::kMillisecond);

/// BiSMO's two-seed hypergradient sweep (sim::adjoint_pass over every
/// source point, serial) at 128^2 with an 11^2 source -- the perfbench
/// bismo_128 shape, which takes the band-convolution adjoint -- by backend
/// (arg: 0 = scalar, 1 = SIMD): the FftKernel::band_conv op in place.
void BM_BandConvBackend(benchmark::State& state) {
  BackendGuard backend(state);
  const std::size_t n = 128;
  const OpticsConfig optics = optics_for(n);
  const SourceGeometry geometry(11, optics);
  const AbbeImaging abbe(optics, geometry);
  if (!sim::adjoint_uses_band_conv(abbe)) {
    state.SkipWithError("128^2 / 11^2 no longer takes the band convolution");
    return;
  }
  ComplexGrid o = to_complex(bench_target(n));
  fft2(o);
  Rng rng(5);
  RealGrid seed(n, n);
  RealGrid seed2(n, n);
  for (auto& x : seed) x = rng.uniform(-1, 1);
  for (auto& x : seed2) x = rng.uniform(-1, 1);
  std::vector<sim::AdjointItem> items(abbe.components());
  for (std::size_t k = 0; k < items.size(); ++k) {
    items[k].component = static_cast<std::uint32_t>(k);
    items[k].scale = 0.1;
    items[k].scale2 = -0.3;
    items[k].mask = true;
  }
  for (auto _ : state) {
    const ComplexGrid go =
        sim::adjoint_pass(abbe, o, seed, items, nullptr, &seed2);
    benchmark::DoNotOptimize(go.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(items.size()));
}
BENCHMARK(BM_BandConvBackend)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_AbbeForward(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const OpticsConfig optics = optics_for(n);
  const SourceGeometry geometry(9, optics);
  const AbbeImaging abbe(optics, geometry);
  SourceSpec spec;
  const RealGrid j = make_source(geometry, spec);
  ComplexGrid o = to_complex(bench_target(n));
  fft2(o);
  for (auto _ : state) {
    const AbbeAerial a = abbe.aerial(o, j);
    benchmark::DoNotOptimize(a.intensity.data());
  }
}
BENCHMARK(BM_AbbeForward)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_AbbeDualGradient(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const OpticsConfig optics = optics_for(n);
  const SourceGeometry geometry(9, optics);
  const AbbeImaging abbe(optics, geometry);
  const RealGrid target = bench_target(n);
  const AbbeGradientEngine engine(abbe, target);
  const RealGrid theta_m = init_mask_params(target, {});
  // Two alternating masks: every iteration misses the engine's image
  // cache, so the dual gradient runs its forward and adjoint chains.
  const RealGrid theta_m_alt = theta_m * 0.999;
  SourceSpec spec;
  const RealGrid theta_j = init_source_params(make_source(geometry, spec), {});
  bool alt = false;
  for (auto _ : state) {
    alt = !alt;
    const SmoGradient g = engine.evaluate(alt ? theta_m_alt : theta_m, theta_j,
                                          GradRequest{});
    benchmark::DoNotOptimize(g.loss);
  }
}
BENCHMARK(BM_AbbeDualGradient)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

/// One SourceImageCache fill, serial, with a 9^2 source at 8 nm pixels,
/// through each path (path: 0 = autocorrelation, 1 = chain + projection).
/// The label says which path the cost rule
/// (sim::image_fill_uses_autocorrelation) picks at this size; at 512 the
/// two paths cross.
void BM_SourceImageFill(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool chain = state.range(1) != 0;
  const OpticsConfig optics = optics_for(n);
  const SourceGeometry geometry(9, optics);
  const AbbeImaging abbe(optics, geometry);
  ComplexGrid o = to_complex(bench_target(n));
  fft2(o);
  const RealGrid key(n, n, 0.0);
  sim::SourceImageCache cache;
  for (auto _ : state) {
    cache.fill(abbe, o, key,
               chain ? sim::ImageFill::kChain
                     : sim::ImageFill::kAutocorrelation);
    benchmark::ClobberMemory();
  }
  state.SetLabel(sim::image_fill_uses_autocorrelation(abbe)
                     ? "rule: autocorrelation"
                     : "rule: chain");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(abbe.components()));
}
BENCHMARK(BM_SourceImageFill)
    ->ArgNames({"n", "chain"})
    ->ArgsProduct({{64, 128, 256, 512}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

/// Serving from a filled cache (9^2 source, serial): mode 0 is the
/// weighted intensity over every point, mode 1 the dots of one weight
/// grid -- the two halves of an exact HVP.
void BM_SourceImageServe(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool dots = state.range(1) != 0;
  const OpticsConfig optics = optics_for(n);
  const SourceGeometry geometry(9, optics);
  const AbbeImaging abbe(optics, geometry);
  ComplexGrid o = to_complex(bench_target(n));
  fft2(o);
  sim::SourceImageCache cache;
  cache.fill(abbe, o, RealGrid(n, n, 0.0));
  std::vector<std::uint32_t> comps(abbe.components());
  std::vector<double> weights(abbe.components());
  for (std::size_t k = 0; k < comps.size(); ++k) {
    comps[k] = static_cast<std::uint32_t>(k);
    weights[k] = 1.0 + 0.01 * static_cast<double>(k);
  }
  const RealGrid w = bench_target(n);
  RealGrid image;
  std::vector<double> out;
  for (auto _ : state) {
    if (dots) {
      cache.dots(abbe, w.data(), out);
      benchmark::DoNotOptimize(out.data());
    } else {
      cache.intensity(abbe, comps, weights, image);
      benchmark::DoNotOptimize(image.data());
    }
  }
}
BENCHMARK(BM_SourceImageServe)
    ->ArgNames({"n", "dots"})
    ->ArgsProduct({{64, 128, 256}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

/// A BiSMO outer step's hypergradient inputs at the bench shapes: 9^2
/// source at 64^2, 11^2 at 128^2 (the perfbench bismo_128 shape).
struct HypergradientBench {
  explicit HypergradientBench(std::size_t n)
      : optics(optics_for(n)),
        geometry(n >= 128 ? 11 : 9, optics),
        abbe(optics, geometry),
        target(bench_target(n)),
        engine(abbe, target),
        theta_m(init_mask_params(target, {})),
        theta_j(init_source_params(make_source(geometry, SourceSpec{}), {})),
        v(geometry.dim(), geometry.dim()) {
    Rng rng(3);
    for (auto& x : v) x = rng.uniform(-1, 1);
  }
  OpticsConfig optics;
  SourceGeometry geometry;
  AbbeImaging abbe;
  RealGrid target;
  AbbeGradientEngine engine;
  RealGrid theta_m;
  RealGrid theta_j;
  RealGrid v;
};

void BM_Hvp(benchmark::State& state) {
  // One exact source HVP at a linearized point (the CG/Neumann inner op).
  const HypergradientBench b(static_cast<std::size_t>(state.range(0)));
  const HypergradientOps ops(b.engine);
  ops.linearize(b.theta_m, b.theta_j);
  RealGrid hv;
  for (auto _ : state) {
    ops.hvp(b.v, hv);
    benchmark::DoNotOptimize(hv.data());
  }
}
BENCHMARK(BM_Hvp)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_HypergradientStep(benchmark::State& state) {
  // The hypergradient part of one BiSMO-NMN outer step (K = 3) at a theta_M
  // whose images are cached, as after the step's unroll.  exact=1: one
  // linearization, 3 exact HVPs and one two-seed sweep (core/bismo.cpp);
  // exact=0: the finite-difference step it replaced -- a full evaluation,
  // 3 FD HVPs and the 2-evaluation FD mixed term (grad/gradcheck oracles).
  const HypergradientBench b(static_cast<std::size_t>(state.range(0)));
  const bool exact = state.range(1) != 0;
  const HypergradientOps ops(b.engine);
  const RealGrid w = b.v * 0.1;
  for (auto _ : state) {
    if (exact) {
      const SmoGradient& g = ops.linearize(b.theta_m, b.theta_j);
      RealGrid hv = ops.hvp(g.grad_theta_j);
      for (int k = 1; k < 3; ++k) hv = ops.hvp(hv);
      const RealGrid hyper = ops.hypergradient(w);
      benchmark::DoNotOptimize(hyper.data());
    } else {
      const SmoGradient g = b.engine.evaluate(b.theta_m, b.theta_j);
      RealGrid hv = fd_hvp_source(b.engine, b.theta_m, b.theta_j,
                                  g.grad_theta_j);
      for (int k = 1; k < 3; ++k) {
        hv = fd_hvp_source(b.engine, b.theta_m, b.theta_j, hv);
      }
      RealGrid hyper = g.grad_theta_m;
      hyper -= fd_mixed_mask_source(b.engine, b.theta_m, b.theta_j, w);
      benchmark::DoNotOptimize(hyper.data());
    }
  }
}
BENCHMARK(BM_HypergradientStep)
    ->ArgNames({"n", "exact"})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Unit(benchmark::kMillisecond);

void BM_SocsBuild(benchmark::State& state) {
  const std::size_t n = 64;
  const OpticsConfig optics = optics_for(n);
  const SourceGeometry geometry(static_cast<std::size_t>(state.range(0)),
                                optics);
  const AbbeImaging abbe(optics, geometry);
  SourceSpec spec;
  const RealGrid j = make_source(geometry, spec);
  for (auto _ : state) {
    const SocsDecomposition socs(abbe, j, 24);
    benchmark::DoNotOptimize(socs.kernels().size());
  }
}
BENCHMARK(BM_SocsBuild)->Arg(9)->Arg(13)->Unit(benchmark::kMillisecond);

void BM_HopkinsForward(benchmark::State& state) {
  const std::size_t n = 64;
  const OpticsConfig optics = optics_for(n);
  const SourceGeometry geometry(9, optics);
  const AbbeImaging abbe(optics, geometry);
  SourceSpec spec;
  const RealGrid j = make_source(geometry, spec);
  const SocsDecomposition socs(abbe, j,
                               static_cast<std::size_t>(state.range(0)));
  const HopkinsImaging hopkins(optics, socs);
  ComplexGrid o = to_complex(bench_target(n));
  fft2(o);
  for (auto _ : state) {
    const RealGrid i = hopkins.aerial(o);
    benchmark::DoNotOptimize(i.data());
  }
}
BENCHMARK(BM_HopkinsForward)->Arg(8)->Arg(24)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

// Per-source-point image cache tests (sim/source_image_cache.hpp and its
// use inside AbbeGradientEngine):
//
//   * the served intensity matches AbbeImaging::aerial to 1e-12 of the
//     grid maximum under every backend and from both fill paths;
//   * the autocorrelation fill matches the chain + projection fill, and
//     both match |field|^2 of the per-point reference
//     (imaging_reference.hpp), to 1e-12 at 64, 96, 128 and 256, and at the
//     sampling boundary
//     pixel = lambda / (4 NA), where bands reach the Nyquist row and
//     disk offsets alias;
//   * served intensities and dots are bitwise equal at 1, 2 and 4 threads,
//     and a warmed intensity, dots or exact HVP allocates nothing;
//   * at 128^2 / 11^2 the cache holds at most 1/20 of the dense images;
//   * the key is the exact bits of theta_M (plus the backend);
//   * engine results do not depend on call history: shuffled sequences of
//     full, source-only, mask-only and loss-only calls (every one served
//     from the cache) match a fresh engine bit for bit, on the
//     band-convolution and field-capture paths;
//   * a mask-only call returns the full call's loss and mask gradient bit
//     for bit, also with a raised source cutoff;
//   * the cached source gradient matches the per-point reference to 1e-12
//     relative, from either fill, and passes a gradcheck;
//   * adjoint_pass's wns on the captured- and recomputed-field paths
//     matches the cache's dots to 1e-12 relative on every backend;
//   * engines sharing one WorkspaceSet keep their own images;
//   * short BiSMO-NMN, BiSMO-CG, AM-SMO(A-A) and Abbe-MO runs are bitwise
//     identical at 1, 2 and 4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/alloc_guard.hpp"
#include "core/problem.hpp"
#include "core/runner.hpp"
#include "fft/fft.hpp"
#include "fft/kernels/kernel.hpp"
#include "grad/abbe_grad.hpp"
#include "grad/gradcheck.hpp"
#include "grad/hvp.hpp"
#include "litho/abbe.hpp"
#include "math/grid_ops.hpp"
#include "math/rng.hpp"
#include "parallel/reduction.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/imaging_model.hpp"
#include "sim/source_image_cache.hpp"
#include "sim/workspace.hpp"
#include "imaging_reference.hpp"
#include "test_util.hpp"

namespace bismo {
namespace {

using testing::BackendGuard;

/// A 64x64 clip.  At 8 nm pixels the pass-bands are narrow enough for the
/// band-convolution adjoint; at 16 nm they are too wide, so gradients
/// capture fields instead; at 24 nm they are also too wide for the
/// autocorrelation fill, so a source-gradient miss fills through the
/// chain and captures the fields there.
struct Rig {
  OpticsConfig optics;
  SourceGeometry geometry;
  RealGrid target;
  RealGrid theta_m[2];
  RealGrid theta_j[2];

  explicit Rig(double pixel_nm, double defocus_nm = 0.0)
      : optics{193.0, 1.35, 64, pixel_nm, defocus_nm},
        geometry(7, optics),
        target(64, 64, 0.0) {
    for (std::size_t r = 28; r < 36; ++r) {
      for (std::size_t c = 12; c < 52; ++c) target(r, c) = 1.0;
    }
    for (std::size_t r = 12; r < 52; ++r) {
      for (std::size_t c = 28; c < 36; ++c) target(r, c) = 1.0;
    }
    Rng rng(404);
    for (int i = 0; i < 2; ++i) {
      theta_m[i] = init_mask_params(target, {});
      for (auto& v : theta_m[i]) v += rng.uniform(-0.3, 0.3);
      theta_j[i] = init_source_params(make_source(geometry, SourceSpec{}), {});
      for (auto& v : theta_j[i]) v += rng.uniform(-0.5, 0.5);
    }
  }
};

enum class Kind { kFull, kSource, kMask, kLoss };

/// Everything one engine call returns, in comparable form.
struct Outcome {
  double loss = 0.0;
  double l2 = 0.0;
  double pvb = 0.0;
  RealGrid grad_m;
  RealGrid grad_j;
};

Outcome call(const AbbeGradientEngine& engine, Kind kind, const RealGrid& tm,
             const RealGrid& tj) {
  Outcome out;
  if (kind == Kind::kLoss) {
    const SmoLoss l = engine.loss_only(tm, tj);
    out.loss = l.total;
    out.l2 = l.l2;
    out.pvb = l.pvb;
    return out;
  }
  GradRequest request;
  request.mask = kind != Kind::kSource;
  request.source = kind != Kind::kMask;
  SmoGradient g = engine.evaluate(tm, tj, request);
  out.loss = g.loss;
  out.l2 = g.l2;
  out.pvb = g.pvb;
  out.grad_m = std::move(g.grad_theta_m);
  out.grad_j = std::move(g.grad_theta_j);
  return out;
}

void expect_bitwise(const Outcome& got, const Outcome& want,
                    const std::string& what) {
  EXPECT_EQ(got.loss, want.loss) << what;
  EXPECT_EQ(got.l2, want.l2) << what;
  EXPECT_EQ(got.pvb, want.pvb) << what;
  EXPECT_TRUE(got.grad_m == want.grad_m) << what;
  EXPECT_TRUE(got.grad_j == want.grad_j) << what;
}

/// The same call on a brand-new engine over a private workspace set, which
/// fills its own cache first.
Outcome fresh_call(const Rig& rig, Kind kind, const RealGrid& tm,
                   const RealGrid& tj) {
  const AbbeImaging abbe(rig.optics, rig.geometry);
  const AbbeGradientEngine engine(abbe, rig.target);
  return call(engine, kind, tm, tj);
}

// ---- The cache itself --------------------------------------------------------

double max_abs(const RealGrid& g) {
  double m = 0.0;
  for (const double v : g) m = std::max(m, std::abs(v));
  return m;
}

TEST(SourceImageCache, IntensityMatchesAerialOnEveryBackendAndMode) {
  BackendGuard guard;
  const Rig rig(8.0);
  ComplexGrid o = to_complex(activate_mask(rig.theta_m[0], {}));
  fft2(o);
  // Non-uniform weights over more points than reduction slots, with a few
  // points dark so the active list skips components.
  RealGrid j = activate_source(rig.theta_j[0], rig.geometry, {});
  for (std::size_t k = 0; k < 3; ++k) {
    const SourcePoint& pt = rig.geometry.points()[5 * k];
    j(pt.row, pt.col) = 0.0;
  }
  for (const std::string& backend : fft::available_backends()) {
    ASSERT_TRUE(fft::set_backend(backend));
    for (const sim::ImageFill path :
         {sim::ImageFill::kAutocorrelation, sim::ImageFill::kChain}) {
      const bool chain = path == sim::ImageFill::kChain;
      const AbbeImaging abbe(rig.optics, rig.geometry);
      sim::SourceImageCache cache;
      cache.fill(abbe, o, rig.theta_m[0], path);
      ASSERT_TRUE(cache.holds(rig.theta_m[0]));
      const AbbeAerial direct = abbe.aerial(o, j);
      const AbbeAerial served = abbe.aerial(cache, j);
      EXPECT_EQ(direct.total_weight, served.total_weight);
      EXPECT_LE(testing::max_diff(direct.intensity, served.intensity),
                1e-12 * max_abs(direct.intensity))
          << backend << (chain ? " chain" : " autocorrelation");
    }
  }
}

/// A clip of side `n` at `pixel_nm` with a `source_dim`^2 source, a random
/// mask spectrum and a random weight grid.
struct SpectralRig {
  OpticsConfig optics;
  SourceGeometry geometry;
  ComplexGrid o;
  RealGrid w;
  RealGrid key;

  SpectralRig(std::size_t n, double pixel_nm, std::size_t source_dim)
      : optics{193.0, 1.35, n, pixel_nm, 0.0},
        geometry(source_dim, optics),
        w(n, n),
        key(n, n, 0.25) {
    Rng rng(static_cast<std::uint64_t>(n) * 31 + source_dim);
    RealGrid mask(n, n);
    for (auto& v : mask) v = rng.uniform(0.0, 1.0);
    o = to_complex(mask);
    fft2(o);
    for (auto& v : w) v = rng.uniform(-1.0, 1.0);
  }
};

/// Every component's image served alone (unit weight), from a cache filled
/// through `path`.
std::vector<RealGrid> component_images(const AbbeImaging& abbe,
                                       const SpectralRig& rig,
                                       sim::ImageFill path,
                                       std::vector<double>& dots) {
  sim::SourceImageCache cache;
  cache.fill(abbe, rig.o, rig.key, path);
  std::vector<RealGrid> images;
  for (std::size_t c = 0; c < abbe.components(); ++c) {
    images.push_back(cache.intensity(
        abbe, {static_cast<std::uint32_t>(c)}, {1.0}));
  }
  cache.dots(abbe, rig.w.data(), dots);
  return images;
}

void expect_fill_matches_oracle(const SpectralRig& rig, const std::string& what) {
  for (const std::string& backend : fft::available_backends()) {
    ASSERT_TRUE(fft::set_backend(backend));
    const AbbeImaging abbe(rig.optics, rig.geometry);
    std::vector<double> dots_ac;
    std::vector<double> dots_chain;
    const std::vector<RealGrid> ac = component_images(
        abbe, rig, sim::ImageFill::kAutocorrelation, dots_ac);
    const std::vector<RealGrid> chain =
        component_images(abbe, rig, sim::ImageFill::kChain, dots_chain);
    ASSERT_EQ(ac.size(), chain.size());
    ASSERT_EQ(dots_ac.size(), dots_chain.size());
    double dot_scale = 0.0;
    for (std::size_t c = 0; c < ac.size(); ++c) {
      // The oracle itself: the component's per-point reference field.
      const ComplexGrid field =
          reference::field(rig.o, abbe.component_band(c));
      RealGrid direct(field.rows(), field.cols());
      double dot = 0.0;
      for (std::size_t i = 0; i < field.size(); ++i) {
        direct[i] = std::norm(field[i]);
        dot += rig.w[i] * direct[i];
      }
      const double scale = max_abs(direct);
      EXPECT_LE(testing::max_diff(ac[c], chain[c]), 1e-12 * scale)
          << what << " " << backend << " component " << c;
      EXPECT_LE(testing::max_diff(chain[c], direct), 1e-12 * scale)
          << what << " " << backend << " component " << c;
      dot_scale = std::max(dot_scale, std::abs(dot));
      EXPECT_NEAR(dots_chain[c], dot, 1e-12 * static_cast<double>(field.size()) * scale)
          << what << " " << backend << " component " << c;
    }
    for (std::size_t c = 0; c < dots_ac.size(); ++c) {
      EXPECT_NEAR(dots_ac[c], dots_chain[c], 1e-12 * dot_scale)
          << what << " " << backend << " component " << c;
    }
  }
}

TEST(SourceImageCache, AutocorrelationFillMatchesChainOracle) {
  BackendGuard guard;
  // 8 nm pixels: the bismo_128 and tiled_cluster band widths.  Bands of
  // on-axis points wrap row and column 0.  96 and 104 = 13 * 8 are
  // mixed-radix lengths.
  for (const std::size_t n : {64u, 96u, 104u, 128u, 256u}) {
    const SpectralRig rig(n, 8.0, n >= 256 ? 7 : 9);
    const AbbeImaging abbe(rig.optics, rig.geometry);
    EXPECT_TRUE(sim::image_fill_uses_autocorrelation(abbe)) << n;
    expect_fill_matches_oracle(rig, std::to_string(n));
  }
}

TEST(SourceImageCache, AutocorrelationFillMatchesChainOracleAtNyquist) {
  // pixel = lambda / (4 NA), the OpticsConfig::validate boundary: the
  // doubled-pupil disk reaches +-Nyquist, edge bands straddle the Nyquist
  // row and column, and disk offsets +-n/2 fold onto one bin.
  BackendGuard guard;
  const double pixel = 193.0 / (4.0 * 1.35);
  for (const std::size_t n : {32u, 48u}) {
    const SpectralRig rig(n, pixel, 5);
    ASSERT_NO_THROW(rig.optics.validate());
    const AbbeImaging abbe(rig.optics, rig.geometry);
    bool nyquist_row = false;
    bool nyquist_col = false;
    for (std::size_t c = 0; c < abbe.components(); ++c) {
      const sim::BandRef band = abbe.component_band(c);
      for (std::size_t i = 0; i < band.nbins; ++i) {
        nyquist_row = nyquist_row || band.bins[i] / n == n / 2;
        nyquist_col = nyquist_col || band.bins[i] % n == n / 2;
      }
    }
    ASSERT_TRUE(nyquist_row && nyquist_col) << n;
    expect_fill_matches_oracle(rig, "nyquist " + std::to_string(n));
  }
}

TEST(SourceImageCache, ServedIntensityAndDotsBitwiseAcrossThreadCounts) {
  for (const sim::ImageFill path :
       {sim::ImageFill::kAutocorrelation, sim::ImageFill::kChain}) {
    const SpectralRig rig(64, 8.0, 9);
    RealGrid want_image;
    std::vector<double> want_dots;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads);
      const AbbeImaging abbe(rig.optics, rig.geometry, &pool);
      sim::SourceImageCache cache;
      cache.fill(abbe, rig.o, rig.key, path);
      std::vector<std::uint32_t> comps;
      std::vector<double> weights;
      for (std::size_t c = 0; c < abbe.components(); ++c) {
        comps.push_back(static_cast<std::uint32_t>(c));
        weights.push_back(0.5 + 0.01 * static_cast<double>(c));
      }
      const RealGrid image = cache.intensity(abbe, comps, weights);
      std::vector<double> dots;
      cache.dots(abbe, rig.w.data(), dots);
      if (threads == 1) {
        want_image = image;
        want_dots = dots;
        continue;
      }
      EXPECT_TRUE(image == want_image) << threads << " threads";
      EXPECT_TRUE(dots == want_dots) << threads << " threads";
    }
  }
}

TEST(SourceImageCache, HoldsAtMostOneTwentiethOfTheDenseImages) {
  // The perfbench bismo_128 shape: 128^2 at 8 nm, 11^2 source.
  const SpectralRig rig(128, 8.0, 11);
  const AbbeImaging abbe(rig.optics, rig.geometry);
  sim::SourceImageCache cache;
  cache.fill(abbe, rig.o, rig.key);
  const std::size_t dense = abbe.components() * 128 * 128 * sizeof(double);
  EXPECT_GT(cache.bytes(), 0u);
  EXPECT_LE(20 * cache.bytes(), dense)
      << cache.bytes() << " bytes against " << dense;
}

TEST(AllocGuardSourceImageCache, WarmedServeAndHvpAllocateNothing) {
  if (!core::AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  const Rig rig(8.0);
  ThreadPool pool(2);
  const AbbeImaging abbe(rig.optics, rig.geometry, &pool);
  const AbbeGradientEngine engine(abbe, rig.target);
  const sim::SourceImageCache& cache = engine.source_images(rig.theta_m[0]);
  std::vector<std::uint32_t> comps;
  std::vector<double> weights;
  for (std::size_t c = 0; c < abbe.components(); ++c) {
    comps.push_back(static_cast<std::uint32_t>(c));
    weights.push_back(1.0);
  }
  RealGrid image;
  std::vector<double> dots;
  const HypergradientOps ops(engine);
  ops.linearize(rig.theta_m[0], rig.theta_j[0]);
  RealGrid hv;
  const RealGrid v = rig.theta_j[1] * 0.1;
  for (int warm = 0; warm < 2; ++warm) {
    cache.intensity(abbe, comps, weights, image);
    cache.dots(abbe, rig.target.data(), dots);
    ops.hvp(v, hv);
  }
  core::AllocGuard alloc;
  cache.intensity(abbe, comps, weights, image);
  cache.dots(abbe, rig.target.data(), dots);
  ops.hvp(v, hv);
  EXPECT_EQ(alloc.allocations(), 0u);
}

TEST(SourceImageCache, KeyIsExactThetaBitsAndBackend) {
  BackendGuard guard;
  const Rig rig(8.0);
  const AbbeImaging abbe(rig.optics, rig.geometry);
  ComplexGrid o = to_complex(activate_mask(rig.theta_m[0], {}));
  fft2(o);
  sim::SourceImageCache cache;
  EXPECT_FALSE(cache.holds(rig.theta_m[0]));
  const std::string filled_by = fft::backend_name();
  cache.fill(abbe, o, rig.theta_m[0]);
  EXPECT_TRUE(cache.holds(rig.theta_m[0]));

  RealGrid ulp = rig.theta_m[0];
  ulp[100] = std::nextafter(ulp[100], 1e9);
  EXPECT_FALSE(cache.holds(ulp));
  EXPECT_FALSE(cache.holds(rig.theta_m[1]));
  EXPECT_FALSE(cache.holds(RealGrid(32, 32, 0.0)));
  EXPECT_TRUE(cache.holds(rig.theta_m[0]));
  for (const std::string& backend : fft::available_backends()) {
    ASSERT_TRUE(fft::set_backend(backend));
    EXPECT_EQ(cache.holds(rig.theta_m[0]), backend == filled_by) << backend;
  }
}

TEST(SourceImageCache, AdjointPassWnsMatchesDotsOnFieldPaths) {
  // 32x32 at 30 nm: a grid whose pass-bands are too wide for the
  // band-convolution adjoint, so adjoint_pass reduces over fields -- the
  // captured one with an armed FieldCaptureScope, a recomputed one
  // without.  Either way wns[k] is sum_i dldi[i] |A_k,i|^2, the same sum
  // the cache serves as dots().
  BackendGuard guard;
  const OpticsConfig optics{193.0, 1.35, 32, 30.0, 0.0};
  const SourceGeometry geometry(7, optics);
  Rng rng(29);
  const ComplexGrid o = testing::random_complex_grid(rng, 32, 32);
  RealGrid dldi(32, 32, 0.0);
  for (auto& v : dldi) v = rng.uniform(-1.0, 1.0);
  const RealGrid key(32, 32, 0.5);

  for (const std::string& backend : fft::available_backends()) {
    ASSERT_TRUE(fft::set_backend(backend));
    for (const bool capture : {true, false}) {
      const AbbeImaging abbe(optics, geometry);
      ASSERT_FALSE(sim::adjoint_uses_band_conv(abbe));
      std::vector<sim::AdjointItem> items(abbe.components());
      ASSERT_GT(items.size(), kReductionSlots);
      for (std::size_t k = 0; k < items.size(); ++k) {
        items[k].component = static_cast<std::uint32_t>(k);
        items[k].scale = 0.1;
        items[k].mask = k % 2 == 0;
      }
      sim::FieldCaptureScope scope(abbe.workspaces(), abbe.components(),
                                   capture);
      // The chain fill, so an armed scope captures the fields.
      sim::SourceImageCache cache;
      cache.fill(abbe, o, key, sim::ImageFill::kChain);
      std::vector<double> want;
      cache.dots(abbe, dldi.data(), want);
      std::vector<double> wns;
      (void)sim::adjoint_pass(abbe, o, dldi, items, &wns);
      ASSERT_EQ(wns.size(), want.size());
      for (std::size_t k = 0; k < wns.size(); ++k) {
        EXPECT_NEAR(wns[k], want[k], 1e-12 * std::abs(want[k]))
            << backend << (capture ? " captured" : " recomputed")
            << " component " << k;
      }
    }
  }
}

// ---- Engine policy -----------------------------------------------------------

TEST(AbbeEngineImageCache, ResultsIndependentOfCallHistory) {
  const Rig narrow(8.0);
  const Rig wide(16.0);
  const Rig wider(24.0);
  const struct {
    const Rig* rig;
    const char* name;
  } configs[] = {{&narrow, "band-conv"},
                 {&wide, "field-capture"},
                 {&wider, "chain fill + field capture"}};

  struct Call {
    Kind kind;
    int m;
    int j;
  };
  std::vector<Call> calls;
  for (const Kind kind : {Kind::kFull, Kind::kSource, Kind::kMask, Kind::kLoss}) {
    for (int m = 0; m < 2; ++m) {
      for (int j = 0; j < 2; ++j) {
        // Twice each, so the shuffled history mixes hits and misses.
        calls.push_back({kind, m, j});
        calls.push_back({kind, m, j});
      }
    }
  }

  for (const auto& cfg : configs) {
    const Rig& rig = *cfg.rig;
    const AbbeImaging probe(rig.optics, rig.geometry);
    ASSERT_EQ(sim::adjoint_uses_band_conv(probe), &rig == &narrow)
        << cfg.name;
    ASSERT_EQ(sim::image_fill_uses_autocorrelation(probe), &rig != &wider)
        << cfg.name;
    ThreadPool pool(4);
    const AbbeImaging abbe(rig.optics, rig.geometry, &pool);
    const AbbeGradientEngine engine(abbe, rig.target);
    std::mt19937 shuffle_rng(1234);
    std::shuffle(calls.begin(), calls.end(), shuffle_rng);
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const Call& c = calls[i];
      const Outcome got =
          call(engine, c.kind, rig.theta_m[c.m], rig.theta_j[c.j]);
      const Outcome want =
          fresh_call(rig, c.kind, rig.theta_m[c.m], rig.theta_j[c.j]);
      expect_bitwise(got, want,
                     std::string(cfg.name) + " call " + std::to_string(i) +
                         " kind " + std::to_string(static_cast<int>(c.kind)));
    }
  }
}

TEST(AbbeEngineImageCache, MaskOnlyCallMatchesFullCallBitwise) {
  // Every request kind images through the cache and lists every point in
  // the adjoint, so a mask-only call returns the full call's loss and mask
  // gradient bit for bit -- also when a raised cutoff drops points from
  // the mask path.  8 nm runs the band-convolution adjoint, 16 nm captures
  // fields, 24 nm also fills through the chain.
  for (const double pixel_nm : {8.0, 16.0, 24.0}) {
    const Rig rig(pixel_nm);
    const RealGrid& tm = rig.theta_m[0];
    const RealGrid& tj = rig.theta_j[0];
    // The median point weight as the cutoff: about half the points sit
    // at or below it.
    const RealGrid source = activate_source(tj, rig.geometry, {});
    std::vector<double> weights;
    for (const SourcePoint& p : rig.geometry.points()) {
      weights.push_back(source(p.row, p.col));
    }
    std::nth_element(weights.begin(), weights.begin() + weights.size() / 2,
                     weights.end());
    const double cutoff = weights[weights.size() / 2];
    ASSERT_GT(cutoff, 1e-9);

    ThreadPool pool(4);
    const AbbeImaging abbe_mask(rig.optics, rig.geometry, &pool);
    const AbbeImaging abbe_full(rig.optics, rig.geometry, &pool);
    const AbbeGradientEngine mask_engine(abbe_mask, rig.target, {}, {}, {},
                                         {}, cutoff);
    const AbbeGradientEngine full_engine(abbe_full, rig.target, {}, {}, {},
                                         {}, cutoff);
    const Outcome mask = call(mask_engine, Kind::kMask, tm, tj);
    const Outcome full = call(full_engine, Kind::kFull, tm, tj);
    const std::string what =
        std::to_string(static_cast<int>(pixel_nm)) + " nm";
    EXPECT_EQ(mask.loss, full.loss) << what;
    EXPECT_EQ(mask.l2, full.l2) << what;
    EXPECT_EQ(mask.pvb, full.pvb) << what;
    ASSERT_FALSE(mask.grad_m.empty()) << what;
    EXPECT_TRUE(mask.grad_m == full.grad_m) << what;
  }
}

TEST(AbbeEngineImageCache, OneUlpThetaMMissesAndMatchesFreshEngine) {
  const Rig rig(8.0);
  const AbbeImaging abbe(rig.optics, rig.geometry);
  const AbbeGradientEngine engine(abbe, rig.target);
  (void)call(engine, Kind::kSource, rig.theta_m[0], rig.theta_j[0]);
  RealGrid ulp = rig.theta_m[0];
  for (std::size_t i = 0; i < ulp.size(); i += 7) {
    ulp[i] = std::nextafter(ulp[i], 1e9);
  }
  for (const Kind kind : {Kind::kSource, Kind::kLoss, Kind::kFull}) {
    expect_bitwise(call(engine, kind, ulp, rig.theta_j[0]),
                   fresh_call(rig, kind, ulp, rig.theta_j[0]),
                   "kind " + std::to_string(static_cast<int>(kind)));
  }
}

TEST(AbbeEngineImageCache, SourceGradientMatchesReferenceAndGradchecks) {
  // 8 nm fills by autocorrelation, 24 nm through the chain.
  for (const double pixel_nm : {8.0, 24.0}) {
    const Rig rig(pixel_nm);
    const RealGrid& tm = rig.theta_m[0];
    const RealGrid& tj = rig.theta_j[0];
    ThreadPool pool(4);
    const AbbeImaging abbe(rig.optics, rig.geometry, &pool);
    const AbbeGradientEngine engine(abbe, rig.target);
    const std::string what =
        sim::image_fill_uses_autocorrelation(abbe) ? "autocorrelation" : "chain";
    const RealGrid want = reference::abbe_gradient(engine, tm, tj).grad_theta_j;
    double scale = 0.0;
    for (const double v : want) scale = std::max(scale, std::abs(v));
    ASSERT_GT(scale, 0.0);

    GradRequest source_only;
    source_only.mask = false;
    const SmoGradient g = engine.evaluate(tm, tj, source_only);
    EXPECT_LE(testing::max_diff(g.grad_theta_j, want), 1e-12 * scale)
        << what;

    Rng rng(77);
    auto loss_j = [&](const RealGrid& t) {
      return engine.loss_only(tm, t).total;  // every probe is a cache hit
    };
    const GradCheckResult r =
        check_gradient(loss_j, tj, g.grad_theta_j, rng, 16, 1e-4);
    EXPECT_LT(r.max_rel_error, 1e-3) << what;
  }
}

TEST(AbbeEngineImageCache, EnginesSharingAWorkspaceSetKeepTheirOwnImages) {
  // Same grid, same theta bits, different optics: a cache keyed by theta
  // alone but stored in the shared set would hand one engine the other's
  // images.
  const Rig focus(8.0);
  const Rig defocus(8.0, 60.0);
  const auto shared = std::make_shared<sim::WorkspaceSet>();
  const AbbeImaging abbe_a(focus.optics, focus.geometry, nullptr, shared);
  const AbbeImaging abbe_b(defocus.optics, defocus.geometry, nullptr, shared);
  const AbbeGradientEngine engine_a(abbe_a, focus.target);
  const AbbeGradientEngine engine_b(abbe_b, defocus.target);
  const RealGrid& tm = focus.theta_m[0];
  const RealGrid& tj = focus.theta_j[0];

  const Outcome want_a = fresh_call(focus, Kind::kFull, tm, tj);
  const Outcome want_b = fresh_call(defocus, Kind::kFull, tm, tj);
  ASSERT_NE(want_a.loss, want_b.loss);
  for (int round = 0; round < 2; ++round) {  // round 0 fills, round 1 hits
    expect_bitwise(call(engine_a, Kind::kFull, tm, tj), want_a, "engine a");
    expect_bitwise(call(engine_b, Kind::kFull, tm, tj), want_b, "engine b");
  }
  expect_bitwise(call(engine_a, Kind::kLoss, tm, tj),
                 fresh_call(focus, Kind::kLoss, tm, tj), "engine a loss");
  expect_bitwise(call(engine_b, Kind::kLoss, tm, tj),
                 fresh_call(defocus, Kind::kLoss, tm, tj), "engine b loss");
}

TEST(AbbeEngineImageCache, BismoNmnBitwiseAcrossThreadCounts) {
  // BiSMO-NMN and BiSMO-CG (every source step and hypergradient operator
  // served from the cache), AM-SMO(A-A) and Abbe-MO (every step).
  SmoConfig config;
  config.optics = OpticsConfig{193.0, 1.35, 64, 8.0, 0.0};
  config.source_dim = 7;
  config.outer_steps = 3;
  config.unroll_steps = 2;
  config.hyper_terms = 3;
  config.am_cycles = 2;
  config.am_so_steps = 2;
  config.am_mo_steps = 2;
  const Rig rig(8.0);

  for (const Method method :
       {Method::kBismoNmn, Method::kBismoCg, Method::kAmAbbeAbbe,
        Method::kAbbeMo}) {
    RunResult reference;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads);
      const SmoProblem problem(config, rig.target, &pool);
      const RunResult run = run_method(problem, method);
      ASSERT_FALSE(run.trace.empty()) << to_string(method);
      if (threads == 1) {
        reference = run;
        continue;
      }
      const std::string what =
          to_string(method) + ", " + std::to_string(threads) + " threads";
      EXPECT_TRUE(run.theta_m == reference.theta_m) << what;
      EXPECT_TRUE(run.theta_j == reference.theta_j) << what;
      ASSERT_EQ(run.trace.size(), reference.trace.size()) << what;
      for (std::size_t s = 0; s < run.trace.size(); ++s) {
        EXPECT_EQ(run.trace[s].loss, reference.trace[s].loss)
            << what << ", step " << s;
      }
      EXPECT_EQ(run.gradient_evaluations, reference.gradient_evaluations)
          << what;
    }
  }
}

}  // namespace
}  // namespace bismo

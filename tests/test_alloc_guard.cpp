// core::AllocGuard tests: the runtime cross-check of the static no-alloc
// lint regions.  The guarded hot paths -- the pipeline forward+adjoint
// chains at 64x64 (power of two) and 96x96 (mixed radix), the JobQueue
// MPMC push/pop fast path -- must execute with zero heap allocations once
// warmed up; a warmed intensity + adjoint pass allocates only its two
// returned grids on the band-convolution and on the field-capture path,
// at both sizes; a warmed band-convolution adjoint_pass (one
// seed or two) must allocate only its returned g_O, for 2 items as for
// every source point; a warmed exact source HVP and a warmed InverseHvp
// solve (Neumann or CG) must allocate nothing; and a steady-state
// Session::run re-submission must allocate strictly less than the cold
// first run (workspace leases and FFT plans are reused, per-step result
// grids still allocate by design).
//
// Every assertion is gated on AllocGuard::enforced(): under ASan/TSan the
// sanitizer runtime owns the allocator and interposition is compiled out.
#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "api/job_queue.hpp"
#include "core/alloc_guard.hpp"
#include "grad/abbe_grad.hpp"
#include "grad/hvp.hpp"
#include "grad/inverse_hvp.hpp"
#include "litho/abbe.hpp"
#include "math/grid_ops.hpp"
#include "math/rng.hpp"
#include "sim/imaging_model.hpp"
#include "sim/workspace.hpp"
#include "test_util.hpp"

namespace bismo {
namespace {

using core::AllocGuard;

TEST(AllocGuardBasics, CountsHeapAllocationsInScope) {
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  AllocGuard guard;
  EXPECT_EQ(guard.allocations(), 0u);
  // Direct operator-new call: a `new`/`delete` pair is elidable at -O2+.
  void* p = ::operator new(16);
  ::operator delete(p);
  EXPECT_GE(guard.allocations(), 1u);
}

TEST(AllocGuardBasics, AllocationFreeRegionCountsZero) {
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  double stack_work[64];
  AllocGuard guard;
  for (int i = 0; i < 64; ++i) stack_work[i] = i * 0.5;
  double sum = 0.0;
  for (int i = 0; i < 64; ++i) sum += stack_work[i];
  EXPECT_GT(sum, 0.0);
  EXPECT_EQ(guard.allocations(), 0u);
}

TEST(AllocGuardBasics, ThreadScopeIgnoresOtherThreads) {
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  std::thread worker([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    ::operator delete(::operator new(16));
    done.store(true, std::memory_order_release);
  });
  {
    AllocGuard guard(AllocGuard::Scope::kThread);
    go.store(true, std::memory_order_release);
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    EXPECT_EQ(guard.allocations(), 0u);
  }
  worker.join();
}

TEST(AllocGuardBasics, GlobalScopeSeesOtherThreads) {
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  std::thread worker([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    ::operator delete(::operator new(16));
    done.store(true, std::memory_order_release);
  });
  {
    AllocGuard guard(AllocGuard::Scope::kGlobal);
    go.store(true, std::memory_order_release);
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    EXPECT_GE(guard.allocations(), 1u);
  }
  worker.join();
}

// ---- JobQueue fast path -----------------------------------------------------

TEST(AllocGuardJobQueue, PushPopFastPathIsAllocationFree) {
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  api::detail::JobQueue::Config config;
  config.shards = 2;
  config.shard_capacity = 64;
  api::detail::JobQueue queue(config);
  auto state = std::make_shared<api::detail::JobState>();
  state->id = 1;

  // Warm-up: first traversal of every code path (condvar bookkeeping,
  // lazy TLS) happens outside the guarded region.
  std::size_t shard = 0;
  bool stolen = false;
  ASSERT_TRUE(queue.try_push(state));
  ASSERT_NE(queue.pop(0, &shard, &stolen), nullptr);

  AllocGuard guard;
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(queue.try_push(state));
    ASSERT_NE(queue.pop(0, &shard, &stolen), nullptr);
  }
  EXPECT_EQ(guard.allocations(), 0u);
}

// ---- Fused pipeline ---------------------------------------------------------

/// A dense low band over the first 8 rows of a dim x dim spectrum: sorted
/// row-major bins plus the matching occupied-row list, the shape the Abbe
/// engine feeds the pipeline.
struct TestBand {
  std::vector<std::uint32_t> bins;
  std::vector<std::uint32_t> rows;

  explicit TestBand(std::uint32_t dim) {
    for (std::uint32_t row = 0; row < 8; ++row) {
      rows.push_back(row);
      for (std::uint32_t col = 0; col < dim; ++col) {
        bins.push_back(row * dim + col);
      }
    }
  }

  sim::BandRef ref() const {
    return sim::BandRef{bins.data(), nullptr, bins.size(), rows.data(),
                        rows.size()};
  }
};

/// Warmed forward + adjoint chains at dim x dim allocate nothing.  Then,
/// per adjoint path -- band convolution (8 nm pixels: narrow bands) and
/// field capture (24 nm: bands too wide, so the intensity pass captures
/// every field and the adjoint seeds from it) -- a warmed intensity pass
/// plus mask adjoint pass allocates only the two grids it returns.
void expect_pipeline_allocation_free(std::size_t dim) {
  Rng rng(17);
  const ComplexGrid o = testing::random_complex_grid(rng, dim, dim);
  RealGrid dldi(dim, dim, 0.0);
  for (auto& v : dldi) v = rng.uniform(-1.0, 1.0);
  const TestBand band(static_cast<std::uint32_t>(dim));

  sim::SimWorkspace ws;
  ws.ensure(dim);
  ComplexGrid go(dim, dim);
  RealGrid acc(dim, dim, 0.0);
  // Warm-up pass sizes every buffer and exercises both directions.
  ws.forward_field(o, band.ref(), &acc, 0.5);
  ws.adjoint_seed_accumulate(ws.field(), dldi.data(), 0.25, band.ref(), go);
  {
    AllocGuard guard;
    for (int step = 0; step < 4; ++step) {
      ws.forward_field(o, band.ref(), &acc, 0.5);
      ws.adjoint_seed_accumulate(ws.field(), dldi.data(), 0.25, band.ref(),
                                 go);
    }
    EXPECT_EQ(guard.allocations(), 0u) << "pipeline allocated at " << dim;
  }

  for (const double pixel_nm : {8.0, 24.0}) {
    OpticsConfig optics;
    optics.mask_dim = dim;
    optics.pixel_nm = pixel_nm;
    const SourceGeometry geometry(7, optics);
    const AbbeImaging abbe(optics, geometry);  // serial: one thread counts
    const bool band_conv = sim::adjoint_uses_band_conv(abbe);
    ASSERT_EQ(band_conv, pixel_nm == 8.0) << dim;
    std::vector<std::uint32_t> comps;
    std::vector<double> weights;
    std::vector<sim::AdjointItem> items;
    for (std::size_t c = 0; c < abbe.components(); ++c) {
      comps.push_back(static_cast<std::uint32_t>(c));
      weights.push_back(1.0);
      sim::AdjointItem item;
      item.component = static_cast<std::uint32_t>(c);
      item.mask = true;
      item.scale = 0.1;
      items.push_back(item);
    }
    const auto step = [&] {
      sim::FieldCaptureScope capture(abbe.workspaces(), abbe.components(),
                                     !band_conv);
      const RealGrid image = sim::accumulate_intensity(abbe, o, comps, weights);
      const ComplexGrid g = sim::adjoint_pass(abbe, o, dldi, items);
      return image.size() + g.size();
    };
    (void)step();
    (void)step();
    AllocGuard guard;
    (void)step();
    EXPECT_EQ(guard.allocations(), 2u)
        << (band_conv ? "band-conv" : "field-capture") << " pass at " << dim;
  }
}

TEST(AllocGuardPipeline, ForwardAndAdjointAt64AreAllocationFree) {
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  expect_pipeline_allocation_free(64);
}

TEST(AllocGuardPipeline, ForwardAndAdjointAt96AreAllocationFree) {
  // 96 = 3 * 32: the mixed-radix plan.
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  expect_pipeline_allocation_free(96);
}

TEST(AllocGuardPipeline, BandConvAdjointPassAllocationsDoNotGrowWithItems) {
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  OpticsConfig optics;
  optics.mask_dim = 64;
  optics.pixel_nm = 8.0;
  const SourceGeometry geometry(7, optics);
  const AbbeImaging abbe(optics, geometry);  // serial: one thread counts
  ASSERT_TRUE(sim::adjoint_uses_band_conv(abbe));

  Rng rng(23);
  const ComplexGrid o = testing::random_complex_grid(rng, 64, 64);
  RealGrid dldi(64, 64, 0.0);
  for (auto& v : dldi) v = rng.uniform(-1.0, 1.0);
  const auto items_for = [](std::size_t count) {
    std::vector<sim::AdjointItem> items(count);
    for (std::size_t k = 0; k < count; ++k) {
      items[k].component = static_cast<std::uint32_t>(k);
      items[k].mask = k % 2 == 0;
      items[k].scale = 0.1;
    }
    return items;
  };
  const std::vector<sim::AdjointItem> few = items_for(2);
  const std::vector<sim::AdjointItem> all = items_for(abbe.components());
  ASSERT_GT(all.size(), kReductionSlots);

  std::vector<double> wns;
  const auto allocations = [&](const std::vector<sim::AdjointItem>& items) {
    AllocGuard guard;
    (void)sim::adjoint_pass(abbe, o, dldi, items, &wns);
    return guard.allocations();
  };
  // Warm both shapes: every slot's scratch reaches its widest band, and
  // the set's per-pass scratch (transformed seed, offset window, row
  // union) its full size.
  (void)allocations(all);
  (void)allocations(few);
  // Only the returned g_O allocates.
  EXPECT_EQ(allocations(all), 1u);
  EXPECT_EQ(allocations(few), 1u);
}

TEST(AllocGuardPipeline, TwoSeedBandConvAdjointPassAllocationsDoNotGrowWithItems) {
  // BiSMO's fused hypergradient sweep: both seeds ride one per-item kernel
  // op, and a warmed pass allocates nothing but the returned g_O.
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  OpticsConfig optics;
  optics.mask_dim = 64;
  optics.pixel_nm = 8.0;
  const SourceGeometry geometry(7, optics);
  const AbbeImaging abbe(optics, geometry);  // serial: one thread counts
  ASSERT_TRUE(sim::adjoint_uses_band_conv(abbe));

  Rng rng(29);
  const ComplexGrid o = testing::random_complex_grid(rng, 64, 64);
  RealGrid seed(64, 64, 0.0);
  RealGrid seed2(64, 64, 0.0);
  for (auto& v : seed) v = rng.uniform(-1.0, 1.0);
  for (auto& v : seed2) v = rng.uniform(-1.0, 1.0);
  const auto items_for = [](std::size_t count) {
    std::vector<sim::AdjointItem> items(count);
    for (std::size_t k = 0; k < count; ++k) {
      items[k].component = static_cast<std::uint32_t>(k);
      items[k].mask = true;
      items[k].scale = 0.1;
      items[k].scale2 = -0.3;
    }
    return items;
  };
  const std::vector<sim::AdjointItem> few = items_for(2);
  const std::vector<sim::AdjointItem> all = items_for(abbe.components());
  ASSERT_GT(all.size(), kReductionSlots);

  const auto allocations = [&](const std::vector<sim::AdjointItem>& items) {
    AllocGuard guard;
    (void)sim::adjoint_pass(abbe, o, seed, items, nullptr, &seed2);
    return guard.allocations();
  };
  (void)allocations(all);
  (void)allocations(few);
  EXPECT_EQ(allocations(all), 1u);
  EXPECT_EQ(allocations(few), 1u);
}

/// An exact-HVP operator linearized at 64^2 with a 7 x 7 source.
struct LinearizedHvp {
  OpticsConfig optics = [] {
    OpticsConfig o;
    o.mask_dim = 64;
    o.pixel_nm = 8.0;
    return o;
  }();
  SourceGeometry geometry{7, optics};
  AbbeImaging abbe{optics, geometry};  // serial: one thread counts
  RealGrid target = [] {
    RealGrid t(64, 64, 0.0);
    for (std::size_t r = 28; r < 36; ++r) {
      for (std::size_t c = 16; c < 48; ++c) t(r, c) = 1.0;
    }
    return t;
  }();
  AbbeGradientEngine engine{abbe, target};
  HypergradientOps ops{engine};
  RealGrid v{7, 7, 0.0};

  LinearizedHvp() {
    const RealGrid theta_m = init_mask_params(target, {});
    Rng rng(31);
    RealGrid theta_j(7, 7, 0.0);
    for (auto& x : theta_j) x = rng.uniform(-1.0, 1.0);
    for (auto& x : v) x = rng.uniform(-1.0, 1.0);
    ops.linearize(theta_m, theta_j);
  }
};

TEST(AllocGuardHypergradient, WarmedExactHvpIsAllocationFree) {
  // The CG/Neumann inner loop: after one linearization and one warm-up
  // product, every exact source HVP runs on reused buffers.
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  const LinearizedHvp at;
  RealGrid hv;
  at.ops.hvp(at.v, hv);  // warm-up: sizes the output and the cache's scratch
  AllocGuard guard;
  for (int k = 0; k < 4; ++k) at.ops.hvp(at.v, hv);
  EXPECT_EQ(guard.allocations(), 0u);
}

TEST(AllocGuardHypergradient, WarmedInverseHvpSolveIsAllocationFree) {
  // One warm-up of each variant sizes the solver's buffers and w; every
  // later Neumann or warm-started CG solve then runs in place.
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  const LinearizedHvp at;
  const auto hvp = [&at](const RealGrid& x, RealGrid& out) {
    at.ops.hvp(x, out);
  };
  InverseHvp solver;
  RealGrid w_neumann;
  RealGrid w_cg = at.v * 1e-3;
  solver.neumann(hvp, at.v, 0.1, 5, w_neumann);
  solver.cg(hvp, at.v, 5, 1.0, 1e-10, w_cg);
  AllocGuard guard;
  for (int k = 0; k < 3; ++k) {
    solver.neumann(hvp, at.v, 0.1, 5, w_neumann);
    solver.cg(hvp, at.v, 5, 1.0, 1e-10, w_cg);
  }
  EXPECT_EQ(guard.allocations(), 0u);
}

// ---- Session steady state ---------------------------------------------------

TEST(AllocGuardSession, SteadyStateResubmissionAllocatesLessThanColdStart) {
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  api::JobSpec spec;
  spec.clip = api::ClipSource::from_grid(testing::tiny_target32());
  spec.method = Method::kAbbeMo;
  spec.config.optics.pixel_nm = 16.0;
  spec.config_overrides = {"source_dim=7", "socs_kernels=6", "outer_steps=2"};

  api::Session session;
  std::size_t cold = 0;
  {
    AllocGuard guard(AllocGuard::Scope::kGlobal);
    ASSERT_TRUE(session.run(spec).ok());
    cold = guard.allocations();
  }
  // Re-submission leases the cached workspaces and FFT plans; only the
  // per-step result grids still allocate.  Two steady runs bound each
  // other, guarding against slow per-run growth.
  std::size_t steady1 = 0;
  {
    AllocGuard guard(AllocGuard::Scope::kGlobal);
    ASSERT_TRUE(session.run(spec).ok());
    steady1 = guard.allocations();
  }
  std::size_t steady2 = 0;
  {
    AllocGuard guard(AllocGuard::Scope::kGlobal);
    ASSERT_TRUE(session.run(spec).ok());
    steady2 = guard.allocations();
  }
  EXPECT_LT(steady1, cold);
  EXPECT_LT(steady2, cold);
}

}  // namespace
}  // namespace bismo

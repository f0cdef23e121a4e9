// core::AllocGuard tests: the runtime cross-check of the static no-alloc
// lint regions.  The guarded hot paths -- the fused/staged pipeline
// forward+adjoint at 64x64, the JobQueue MPMC push/pop fast path -- must
// execute with zero heap allocations once warmed up, a warmed
// band-convolution adjoint_pass (one seed or two) must allocate the same
// for 2 items as for every source point, a warmed exact source HVP must
// allocate nothing, and a steady-state
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
#include "litho/abbe.hpp"
#include "math/grid_ops.hpp"
#include "math/rng.hpp"
#include "sim/imaging_model.hpp"
#include "sim/pipeline.hpp"
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

/// A dense low band over the first 8 rows of a 64x64 spectrum: sorted
/// row-major bins plus the matching occupied-row list, the shape the Abbe
/// engine feeds the pipeline.
struct TestBand {
  std::vector<std::uint32_t> bins;
  std::vector<std::uint32_t> rows;

  TestBand() {
    for (std::uint32_t row = 0; row < 8; ++row) {
      rows.push_back(row);
      for (std::uint32_t col = 0; col < 64; ++col) {
        bins.push_back(row * 64 + col);
      }
    }
  }

  sim::BandRef ref() const {
    return sim::BandRef{bins.data(), nullptr, bins.size(), rows.data(),
                        rows.size()};
  }
};

TEST(AllocGuardPipeline, ForwardAndAdjointAt64AreAllocationFree) {
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  const bool initial_mode = sim::fusion_enabled();
  Rng rng(17);
  const ComplexGrid o = testing::random_complex_grid(rng, 64, 64);
  RealGrid dldi(64, 64, 0.0);
  for (auto& v : dldi) v = rng.uniform(-1.0, 1.0);
  const TestBand band;

  for (const bool fused : {true, false}) {
    sim::set_fusion_enabled(fused);
    sim::SimWorkspace ws;
    ws.ensure(64);
    ComplexGrid go(64, 64);
    RealGrid acc(64, 64, 0.0);

    // Warm-up pass sizes every buffer and exercises both directions.
    ws.forward_field(o, band.ref(), &acc, 0.5, nullptr);
    ws.adjoint_seed_accumulate(ws.field(), dldi.data(), 0.25, band.ref(), go);

    AllocGuard guard;
    for (int step = 0; step < 4; ++step) {
      ws.forward_field(o, band.ref(), &acc, 0.5, nullptr);
      ws.adjoint_seed_accumulate(ws.field(), dldi.data(), 0.25, band.ref(),
                                 go);
    }
    EXPECT_EQ(guard.allocations(), 0u)
        << (fused ? "fused" : "staged") << " pipeline allocated";
  }
  sim::set_fusion_enabled(initial_mode);
}

TEST(AllocGuardPipeline, BandConvAdjointPassAllocationsDoNotGrowWithItems) {
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  const bool initial_mode = sim::fusion_enabled();
  sim::set_fusion_enabled(true);
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
  // Warm both shapes: every slot's scratch reaches its widest band.
  (void)allocations(all);
  (void)allocations(few);
  // Per-call grids (the transformed dldi, the returned g_O) still
  // allocate; nothing may scale with the items or their slots.
  EXPECT_EQ(allocations(all), allocations(few));
  sim::set_fusion_enabled(initial_mode);
}

TEST(AllocGuardPipeline, TwoSeedBandConvAdjointPassAllocationsDoNotGrowWithItems) {
  // BiSMO's fused hypergradient sweep: both seeds ride one per-item loop,
  // which must allocate nothing per item or per slot once warmed.
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  const bool initial_mode = sim::fusion_enabled();
  sim::set_fusion_enabled(true);
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
  // Per-call grids (the two transformed seeds, the returned g_O) still
  // allocate; nothing may scale with the items or their slots.
  EXPECT_EQ(allocations(all), allocations(few));
  sim::set_fusion_enabled(initial_mode);
}

TEST(AllocGuardHypergradient, WarmedExactHvpIsAllocationFree) {
  // The CG/Neumann inner loop: after one linearization and one warm-up
  // product, every exact source HVP runs on reused buffers.
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  OpticsConfig optics;
  optics.mask_dim = 64;
  optics.pixel_nm = 8.0;
  const SourceGeometry geometry(7, optics);
  const AbbeImaging abbe(optics, geometry);  // serial: one thread counts
  RealGrid target(64, 64, 0.0);
  for (std::size_t r = 28; r < 36; ++r) {
    for (std::size_t c = 16; c < 48; ++c) target(r, c) = 1.0;
  }
  const AbbeGradientEngine engine(abbe, target);
  const RealGrid theta_m = init_mask_params(target, {});
  Rng rng(31);
  RealGrid theta_j(7, 7, 0.0);
  for (auto& v : theta_j) v = rng.uniform(-1.0, 1.0);
  RealGrid v(7, 7, 0.0);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);

  const HypergradientOps ops(engine);
  ops.linearize(theta_m, theta_j);
  RealGrid hv;
  ops.hvp(v, hv);  // warm-up: sizes the output and the cache's scratch
  AllocGuard guard;
  for (int k = 0; k < 4; ++k) ops.hvp(v, hv);
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

// Tiled execution layer tests: TilePlan geometry invariants, halo
// cross-fade stitching (including the exact single-contributor path), the
// tiled-vs-monolithic single-tile equivalence guarantee (bitwise), window
// clip extraction, multi-tile sweeps, and cooperative cancellation.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "api/api.hpp"
#include "math/grid_ops.hpp"
#include "shard/shard.hpp"
#include "test_util.hpp"

namespace bismo {
namespace {

/// A small layout that exercises geometry crossing tile seams: 512 nm
/// tile, rects straddling the center lines of a 2x2 decomposition.
Layout seam_layout() {
  Layout layout(512.0);
  layout.add_rect({96, 224, 416, 272});   // horizontal bar across the seam
  layout.add_rect({240, 64, 288, 448});   // vertical bar across the seam
  layout.add_rect({48, 48, 112, 112});    // corner pad, tile (0,0) only
  return layout;
}

/// Fast method/config base for scheduler runs over seam_layout().
api::JobSpec fast_base() {
  api::JobSpec base;
  base.method = Method::kAbbeMo;
  base.config.initial_source.shape = SourceShape::kConventional;
  base.config.activation.source_init = 1.5;
  base.config_overrides = {"mask_dim=32", "source_dim=7", "outer_steps=3"};
  return base;
}

TEST(TilePlan, CoresPartitionAndWindowsContainCores) {
  const shard::TilePlan plan =
      shard::TilePlan::make(512.0, 128, 2, 4, 24.0);
  EXPECT_EQ(plan.tile_count(), 8u);
  EXPECT_EQ(plan.halo_px(), 6u);  // 24 nm / 4 nm pixels
  // Shared square window: max core axis (64 rows) + 2*halo.
  EXPECT_EQ(plan.tile_dim(), 64u + 12u);
  EXPECT_DOUBLE_EQ(plan.pixel_nm(), 4.0);

  Grid2D<int> owner(128, 128, 0);
  for (const shard::TileWindow& t : plan.tiles()) {
    // Core inside window, window inside grid.
    EXPECT_LE(t.win_r0, t.core_r0);
    EXPECT_LE(t.win_c0, t.core_c0);
    EXPECT_GE(t.win_r0 + plan.tile_dim(), t.core_r1);
    EXPECT_GE(t.win_c0 + plan.tile_dim(), t.core_c1);
    EXPECT_LE(t.win_r0 + plan.tile_dim(), 128u);
    EXPECT_LE(t.win_c0 + plan.tile_dim(), 128u);
    for (std::size_t r = t.core_r0; r < t.core_r1; ++r) {
      for (std::size_t c = t.core_c0; c < t.core_c1; ++c) ++owner(r, c);
    }
  }
  for (std::size_t i = 0; i < owner.size(); ++i) {
    EXPECT_EQ(owner[i], 1) << "core ownership must partition the grid";
  }
}

TEST(TilePlan, SingleTileWindowIsTheFullGridRegardlessOfHalo) {
  const shard::TilePlan plan =
      shard::TilePlan::make(512.0, 64, 1, 1, 1000.0);
  EXPECT_TRUE(plan.single_window());
  EXPECT_EQ(plan.tile_dim(), 64u);
  EXPECT_EQ(plan.tiles()[0].win_r0, 0u);
  EXPECT_DOUBLE_EQ(plan.window_nm(), 512.0);
}

TEST(TilePlan, RejectsNonDivisibleGrids) {
  EXPECT_THROW(shard::TilePlan::make(512.0, 100, 3, 1, 0.0),
               std::invalid_argument);
  EXPECT_THROW(shard::TilePlan::make(0.0, 64, 2, 2, 0.0),
               std::invalid_argument);
  EXPECT_THROW(shard::TilePlan::make(512.0, 64, 2, 2, -1.0),
               std::invalid_argument);
}

TEST(Stitch, WeightIsOneInsideTheCoreAndRampsAcrossTheHalo) {
  const shard::TilePlan plan = shard::TilePlan::make(512.0, 64, 2, 2, 32.0);
  const std::size_t h = plan.halo_px();  // 4 px
  ASSERT_EQ(h, 4u);
  // Window edge: ramp starts at 1/(h+1); core interior: exactly 1.
  EXPECT_DOUBLE_EQ(shard::stitch_weight(plan, 0, plan.tile_dim() / 2),
                   1.0 / 5.0);
  EXPECT_DOUBLE_EQ(
      shard::stitch_weight(plan, plan.tile_dim() / 2, plan.tile_dim() / 2),
      1.0);
  EXPECT_DOUBLE_EQ(shard::stitch_weight(plan, 0, 0), 1.0 / 25.0);
}

TEST(Stitch, SingleWindowCopiesBitwise) {
  const shard::TilePlan plan = shard::TilePlan::make(512.0, 32, 1, 1, 64.0);
  Rng rng(7);
  RealGrid tile(32, 32);
  for (auto& v : tile) v = rng.uniform(-3.0, 3.0);
  const RealGrid out = shard::stitch(plan, {tile});
  EXPECT_TRUE(out == tile);  // bitwise: no multiply/divide round trip
}

TEST(Stitch, ConstantTilesStitchToTheConstant) {
  const shard::TilePlan plan = shard::TilePlan::make(512.0, 64, 2, 2, 40.0);
  const std::vector<RealGrid> tiles(
      plan.tile_count(), RealGrid(plan.tile_dim(), plan.tile_dim(), 0.7));
  const RealGrid out = shard::stitch(plan, tiles);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], 0.7, 1e-12);
  }
}

TEST(Stitch, RejectsWrongTileCountOrShape) {
  const shard::TilePlan plan = shard::TilePlan::make(512.0, 64, 2, 2, 0.0);
  EXPECT_THROW(shard::stitch(plan, {}), std::invalid_argument);
  const std::vector<RealGrid> bad(plan.tile_count(), RealGrid(8, 8, 0.0));
  EXPECT_THROW(shard::stitch(plan, bad), std::invalid_argument);
}

TEST(LayoutWindow, CropsTranslatesAndMatchesFullRasterPixels) {
  const Layout layout = seam_layout();
  // A 256 nm window aligned to the 8 nm pixel grid of a 64 px raster.
  const Layout win = layout.window(128.0, 64.0, 256.0);
  EXPECT_DOUBLE_EQ(win.tile_nm(), 256.0);
  const RealGrid full = layout.rasterize(64);    // 8 nm pixels
  const RealGrid crop = win.rasterize(32);       // same 8 nm pixels
  for (std::size_t r = 0; r < 32; ++r) {
    for (std::size_t c = 0; c < 32; ++c) {
      EXPECT_EQ(crop(r, c), full(r + 8, c + 16))
          << "window raster must reproduce the full raster at (" << r << ","
          << c << ")";
    }
  }
  EXPECT_THROW(layout.window(400.0, 0.0, 256.0), std::invalid_argument);
}

// The acceptance guarantee: a layout that fits in one tile produces
// bitwise-identical masks and metrics through the TileScheduler and
// through a direct Session::run.
TEST(TileScheduler, SingleTileIsBitwiseEquivalentToMonolithicRun) {
  const Layout layout = seam_layout();
  api::JobSpec base = fast_base();

  api::Session session;
  shard::TileScheduler scheduler(session);
  shard::ShardOptions opts;
  opts.rows = 1;
  opts.cols = 1;
  opts.halo_nm = 64.0;  // irrelevant for a 1x1 plan
  const shard::ShardResult tiled = scheduler.run(layout, base, opts);
  ASSERT_TRUE(tiled.ok()) << tiled.error;
  ASSERT_EQ(tiled.tiles.size(), 1u);
  ASSERT_TRUE(tiled.tiles[0].ok()) << tiled.tiles[0].error;

  api::JobSpec direct = base;
  direct.clip = api::ClipSource::from_layout(layout);
  const api::JobResult mono = session.run(direct);
  ASSERT_TRUE(mono.ok()) << mono.error;

  // Optimized parameters bitwise identical...
  EXPECT_TRUE(tiled.tiles[0].run.theta_m == mono.run.theta_m);
  EXPECT_TRUE(tiled.tiles[0].run.theta_j == mono.run.theta_j);

  // ...and so are the stitched images and full metrics.
  const auto problem = session.make_problem(direct);
  EXPECT_TRUE(tiled.mask ==
              problem->mask_image(mono.run.theta_m, /*binary=*/true));
  EXPECT_TRUE(tiled.aerial ==
              problem->aerial_image(mono.run.theta_m, mono.run.theta_j));
  EXPECT_TRUE(tiled.target == problem->target());
  EXPECT_EQ(tiled.stitched.l2_nm2, mono.after.l2_nm2);
  EXPECT_EQ(tiled.stitched.pvb_nm2, mono.after.pvb_nm2);
  EXPECT_EQ(tiled.stitched.epe_violations, mono.after.epe_violations);
  EXPECT_EQ(tiled.stitched.epe_samples, mono.after.epe_samples);
  EXPECT_EQ(tiled.stitched.loss, mono.after.loss);
}

TEST(TileScheduler, MultiTileSweepStitchesFullLayoutResults) {
  const Layout layout = seam_layout();
  api::JobSpec base = fast_base();
  base.name = "seam";

  api::Session session;
  shard::TileScheduler scheduler(session);
  shard::ShardOptions opts;
  opts.rows = 2;
  opts.cols = 2;
  opts.halo_nm = 64.0;  // 4 px at 16 nm pixels
  const shard::ShardResult result = scheduler.run(layout, base, opts);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_FALSE(result.cancelled);
  ASSERT_EQ(result.tiles.size(), 4u);
  EXPECT_EQ(result.plan.tile_dim(), 16u + 2u * result.plan.halo_px());
  EXPECT_EQ(result.tiles[1].job_name, "seam[0,1]");

  EXPECT_EQ(result.mask.rows(), 32u);
  EXPECT_EQ(result.aerial.rows(), 32u);
  EXPECT_TRUE(result.target == layout.rasterize(32));
  for (std::size_t i = 0; i < result.mask.size(); ++i) {
    EXPECT_TRUE(result.mask[i] == 0.0 || result.mask[i] == 1.0);
    EXPECT_GE(result.aerial[i], 0.0);
  }
  EXPECT_TRUE(std::isfinite(result.stitched.l2_nm2));
  EXPECT_TRUE(std::isfinite(result.stitched.loss));
  EXPECT_GT(result.stitched.epe_samples, 0u);

  // Per-tile jobs skip isolated metric evaluation.
  for (const api::JobResult& tile : result.tiles) {
    EXPECT_EQ(tile.after.epe_samples, 0u);
    EXPECT_FALSE(tile.run.trace.empty());
  }

  // Scheduling is invisible in the results: the same tile jobs run one at
  // a time and all four in flight give bitwise-equal parameters.
  const std::vector<api::JobSpec> specs =
      scheduler.tile_specs(layout, base, result.plan);
  const std::vector<api::JobResult> sequential = session.run_batch(specs, {1});
  const std::vector<api::JobResult> concurrent = session.run_batch(specs, {4});
  ASSERT_EQ(sequential.size(), 4u);
  ASSERT_EQ(concurrent.size(), 4u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(sequential[i].ok()) << sequential[i].error;
    ASSERT_TRUE(concurrent[i].ok()) << concurrent[i].error;
    EXPECT_TRUE(sequential[i].run.theta_m == concurrent[i].run.theta_m) << i;
    EXPECT_TRUE(sequential[i].run.theta_j == concurrent[i].run.theta_j) << i;
  }
}

TEST(TileScheduler, CancelDrainsTheSweep) {
  const Layout layout = seam_layout();
  api::JobSpec base = fast_base();

  api::Session* session_ptr = nullptr;
  api::Session::Options options;
  options.on_event = [&session_ptr](const api::JobEvent& e) {
    if (e.kind == api::JobEvent::Kind::kStep) session_ptr->request_cancel();
  };
  api::Session session(options);
  session_ptr = &session;

  shard::TileScheduler scheduler(session);
  shard::ShardOptions opts;
  opts.rows = 2;
  opts.cols = 2;
  opts.halo_nm = 32.0;
  const shard::ShardResult result = scheduler.run(layout, base, opts);
  EXPECT_TRUE(result.cancelled);
  EXPECT_TRUE(result.mask.empty());  // no stitching on a cancelled sweep
}

}  // namespace
}  // namespace bismo

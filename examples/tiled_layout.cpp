// Tiled large-layout execution: optimize a layout that is bigger than one
// clip by sharding it into overlapping tiles (src/shard/).
//
//   1. compose a 2048 nm "full layout" from four generated 1024 nm metal
//      clips placed in quadrants -- 4x the area a single clip covers,
//   2. plan a 2x2 tile grid with a 128 nm halo so each tile sees its
//      neighbors' geometry across the seam,
//   3. sweep the tiles through one api::Session (concurrently when the
//      machine has the cores; per-step progress and Ctrl-C-style
//      cancellation work exactly as for flat batches),
//   4. stitch the optimized masks/aerials and evaluate the paper's
//      L2 / PVB / EPE on the full 256 x 256 stitched grid.
//
// Build & run:  ./examples/tiled_layout
#include <cstdio>

#include "api/api.hpp"
#include "shard/shard.hpp"

int main() {
  using namespace bismo;

  // -- 1. a full layout four clips wide ----------------------------------
  const DatasetSpec spec = dataset_spec(DatasetKind::kIccad13);
  const double clip_nm = spec.tile_nm;  // 1024 nm quadrants
  Layout full_layout(2.0 * clip_nm);
  for (std::uint64_t quadrant = 0; quadrant < 4; ++quadrant) {
    const Layout clip = generate_clip(spec, /*seed=*/1 + quadrant);
    const double dx = (quadrant % 2 == 0) ? 0.0 : clip_nm;
    const double dy = (quadrant / 2 == 0) ? 0.0 : clip_nm;
    for (const Rect& r : clip.rects()) {
      full_layout.add_rect({r.x0 + dx, r.y0 + dy, r.x1 + dx, r.y1 + dy});
    }
  }
  std::printf("full layout: %.0f nm, %zu rects\n", full_layout.tile_nm(),
              full_layout.size());

  // -- 2.-3. shard and sweep ---------------------------------------------
  api::JobSpec base;
  base.name = "quad";
  base.method = Method::kAbbeMo;
  base.config.initial_source.shape = SourceShape::kConventional;
  base.config.activation.source_init = 1.5;
  // mask_dim is the FULL-layout grid here; each 2x2 tile optimizes a
  // (128 + 2*halo_px)^2 window at the same 8 nm pixel pitch.
  base.config_overrides = {"mask_dim=256", "source_dim=9", "outer_steps=10"};

  api::Session::Options options;
  options.on_event = [](const api::JobEvent& e) {
    if (e.kind != api::JobEvent::Kind::kStep) return;
    std::fprintf(stderr, "\r[%zu/%zu %s] step %d/%d   ", e.batch_index + 1,
                 e.batch_count, e.job_name.c_str(), e.step.step + 1,
                 e.planned_steps);
  };
  api::Session session(options);

  shard::ShardOptions opts;
  opts.rows = 2;
  opts.cols = 2;
  opts.halo_nm = 128.0;

  shard::TileScheduler scheduler(session);
  const shard::ShardResult result = scheduler.run(full_layout, base, opts);
  std::fputc('\n', stderr);
  if (!result.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n", result.error.c_str());
    return 1;
  }

  // -- 4. stitched full-layout report ------------------------------------
  for (const api::JobResult& tile : result.tiles) {
    std::printf("  %-10s %3zu steps  loss %8.3f  %.1f s%s\n",
                tile.job_name.c_str(), tile.run.trace.size(),
                tile.run.final_loss(), tile.total_seconds,
                tile.workspaces_reused ? "  (warm workspaces)" : "");
  }
  std::printf("windows: %zu px (%zu px halo), pixel %.1f nm\n",
              result.plan.tile_dim(), result.plan.halo_px(),
              result.plan.pixel_nm());
  std::printf("stitched %zu x %zu:  L2 = %.0f nm^2   PVB = %.0f nm^2   "
              "EPE = %zu/%zu   (%.1f s total)\n",
              result.plan.full_dim(), result.plan.full_dim(),
              result.stitched.l2_nm2, result.stitched.pvb_nm2,
              result.stitched.epe_violations, result.stitched.epe_samples,
              result.total_seconds);
  return 0;
}

// TileScheduler: tiled execution of one large layout through api::Session.
//
// The scheduler turns a TilePlan into one api::JobSpec per tile (same
// method, same configuration, per-tile window clip, shared mask
// dimension), submits every tile up front through Session::submit (the
// persistent lane scheduler load-balances them), and harvests handles in
// completion order -- rendering each finished tile's mask/aerial for
// stitching while straggler tiles are still optimizing, so one slow tile
// no longer serializes the whole sweep.  Per-step progress flows through
// the session's observer/event feed, and one Session::request_cancel
// drains the whole sweep.
//
// Per-tile jobs skip the isolated before/after metric evaluation
// (JobSpec::evaluate_solution = false): a tile's L2 against its own halo
// padding is not a meaningful number.  Instead the scheduler renders each
// tile's binarized mask and nominal aerial intensity, cross-fades them
// over the halo overlaps (see stitch.hpp), and evaluates the paper's
// metrics once on the stitched full-layout grids -- the same
// evaluate_solution_metrics pipeline a monolithic Session::run uses, so a
// layout that fits in a single tile scores bitwise identically either way.
#ifndef BISMO_SHARD_TILE_SCHEDULER_HPP
#define BISMO_SHARD_TILE_SCHEDULER_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "api/submitter.hpp"
#include "layout/layout.hpp"
#include "math/grid2d.hpp"
#include "metrics/solution.hpp"
#include "shard/tile_plan.hpp"

namespace bismo::shard {

/// How to shard one layout.
struct ShardOptions {
  std::size_t rows = 2;      ///< tile-grid rows
  std::size_t cols = 2;      ///< tile-grid columns
  double halo_nm = 128.0;    ///< overlap margin per window side
  /// Expected tiles in flight (the scheduler's lanes_hint, which shards
  /// the session width accordingly); 0 picks min(tile count, session
  /// worker count).
  std::size_t concurrency = 0;
  /// Render, stitch, and evaluate full-layout images/metrics after the
  /// sweep (one extra engine pass per tile).  Off: only per-tile results.
  bool stitch_images = true;
  /// Submit tiles with their shared coalesce fingerprint so the scheduler
  /// may batch several small same-shape tiles into one lane dispatch
  /// under load (sharing a leased workspace).  Results are bitwise
  /// unaffected; turn off to force one dispatch per tile.
  bool coalesce_tiles = true;
  /// Locality placement hook: maps each tile to a SubmitOptions
  /// placement_hint (jobs sharing a non-zero hint prefer the same worker
  /// under net::Dispatcher; in-process sessions ignore hints).  Unset, the
  /// scheduler groups 2x2 superblocks of the tile grid so halo neighbours
  /// land together.  Return 0 for "no preference".
  std::function<std::uint64_t(const TileWindow&)> placement;
};

/// Outcome of one tiled sweep.
struct ShardResult {
  TilePlan plan;
  std::vector<api::JobResult> tiles;  ///< per-tile results, plan order

  // Stitched full-layout grids (empty when stitch_images was off, the
  // sweep was cancelled, or a tile failed).
  RealGrid mask;     ///< binarized optimized mask
  RealGrid aerial;   ///< nominal-dose aerial intensity
  RealGrid resist;   ///< continuous nominal resist of `aerial`
  RealGrid target;   ///< full-layout rasterization
  SolutionMetrics stitched;  ///< Definitions 1-3 on the stitched grids

  double total_seconds = 0.0;  ///< whole sweep including stitching
  /// Submit-to-last-harvest window: tile optimization plus the per-tile
  /// renders interleaved with it (the final cross-fade is excluded).
  double run_seconds = 0.0;
  bool cancelled = false;      ///< at least one tile drained by a cancel
  std::string error;           ///< first tile failure ("" when all ran)

  bool ok() const noexcept { return error.empty(); }
};

/// Shards layouts through one shared api::Session (whose warm workspace
/// cache, worker pool, observer, and cancel token the sweep reuses).
/// Optionally submits tiles through a different api::JobSubmitter -- a
/// net::Dispatcher fans the sweep over worker processes while the local
/// session still resolves configs and renders/stitches the tiles.
class TileScheduler {
 public:
  explicit TileScheduler(api::Session& session,
                         api::JobSubmitter* submitter = nullptr)
      : session_(session),
        submitter_(submitter != nullptr ? *submitter : session) {}

  /// Decompose `layout` per `options` and optimize every tile with
  /// `base`'s method/configuration (base.clip is ignored -- the layout
  /// argument is the clip; base.config_overrides apply to every tile, and
  /// the base mask_dim is reinterpreted as the FULL-layout grid dimension
  /// from which the per-tile dimension is derived).  Tile-level failures
  /// are contained in the result; plan-level misuse (non-divisible tile
  /// grid, empty layout) throws std::invalid_argument.
  ShardResult run(const Layout& layout, const api::JobSpec& base,
                  const ShardOptions& options);

  /// The plan `run` would use (exposed for benches and tests).
  TilePlan plan_for(const Layout& layout, const api::JobSpec& base,
                    const ShardOptions& options) const;

  /// The per-tile job specs `run` would execute (exposed so callers can
  /// run the identical workload under different scheduling policies).
  std::vector<api::JobSpec> tile_specs(const Layout& layout,
                                       const api::JobSpec& base,
                                       const TilePlan& plan) const;

 private:
  api::Session& session_;        ///< config resolution + render/stitch
  api::JobSubmitter& submitter_; ///< where tile jobs execute
};

}  // namespace bismo::shard

#endif  // BISMO_SHARD_TILE_SCHEDULER_HPP

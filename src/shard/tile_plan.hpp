// TilePlan: pixel-exact decomposition of a large square layout into an
// R x C grid of overlapping square clips for tiled SMO execution.
//
// The plan works in the *full-layout pixel grid*: the layout (side
// `layout_nm`) is discretized to `full_dim` x `full_dim` pixels; each tile
// owns a rectangular core of that grid (the grid cells it is authoritative
// for) and optimizes a larger square window -- the core inflated by a halo
// margin so optical proximity from neighboring geometry is modeled at the
// seams (the pupil's interaction range is a few hundred nm; choose the
// halo accordingly).  All windows share one side length `tile_dim`, so
// every tile job has the same mask dimension and the same pixel pitch as
// the full grid -- which is what lets api::Session serve the whole sweep
// from one warm WorkspaceSet shape and lets stitch() reassemble results
// without resampling.
//
// Windows near the layout boundary are shifted inward (never shrunk) to
// stay inside the layout, so a boundary tile sees extra real geometry on
// its inner side instead of padding.  With rows == cols == 1 the single
// window is exactly the full grid and tiled execution degenerates to the
// monolithic run (see tests/test_shard.cpp for the bitwise guarantee).
#ifndef BISMO_SHARD_TILE_PLAN_HPP
#define BISMO_SHARD_TILE_PLAN_HPP

#include <cstddef>
#include <vector>

namespace bismo::shard {

/// One tile of the plan: core ownership rectangle and window placement,
/// both in full-grid pixels.  The window side is TilePlan::tile_dim().
struct TileWindow {
  std::size_t row = 0;  ///< tile-grid row (0 .. plan.rows()-1)
  std::size_t col = 0;  ///< tile-grid column
  std::size_t core_r0 = 0, core_r1 = 0;  ///< owned rows [r0, r1)
  std::size_t core_c0 = 0, core_c1 = 0;  ///< owned cols [c0, c1)
  std::size_t win_r0 = 0, win_c0 = 0;    ///< window origin (top-left)
};

/// Immutable tiling geometry; construct with `make`.
class TilePlan {
 public:
  TilePlan() = default;

  /// Build the plan.  Requirements (throws std::invalid_argument):
  /// layout_nm > 0, full_dim divisible by rows and by cols (cores must be
  /// whole pixels), rows/cols >= 1, halo_nm >= 0.  The halo is rounded up
  /// to whole pixels, and the window side (core + 2 * halo) up to the next
  /// smooth FFT length (next_smooth_length), capped at full_dim.
  static TilePlan make(double layout_nm, std::size_t full_dim,
                       std::size_t rows, std::size_t cols, double halo_nm);

  double layout_nm() const noexcept { return layout_nm_; }
  std::size_t full_dim() const noexcept { return full_dim_; }
  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t tile_count() const noexcept { return tiles_.size(); }
  std::size_t halo_px() const noexcept { return halo_px_; }

  /// Window side in pixels == the mask dimension of every tile job.
  std::size_t tile_dim() const noexcept { return tile_dim_; }

  /// Full-grid pixel pitch in nm (also the pitch of every tile job).
  double pixel_nm() const noexcept {
    return layout_nm_ / static_cast<double>(full_dim_);
  }

  /// True when the single window spans the whole grid (tiled execution is
  /// exactly the monolithic run).
  bool single_window() const noexcept {
    return tiles_.size() == 1 && tile_dim_ == full_dim_;
  }

  const std::vector<TileWindow>& tiles() const noexcept { return tiles_; }

  /// nm coordinate of a full-grid pixel boundary (multiply-then-divide so
  /// px == full_dim maps to layout_nm exactly).
  double nm_of_px(std::size_t px) const noexcept {
    return (static_cast<double>(px) * layout_nm_) /
           static_cast<double>(full_dim_);
  }

  /// Physical side of every window in nm.
  double window_nm() const noexcept { return nm_of_px(tile_dim_); }

 private:
  double layout_nm_ = 0.0;
  std::size_t full_dim_ = 0;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t halo_px_ = 0;
  std::size_t tile_dim_ = 0;
  std::vector<TileWindow> tiles_;
};

}  // namespace bismo::shard

#endif  // BISMO_SHARD_TILE_PLAN_HPP

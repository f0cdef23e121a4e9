#include "shard/tile_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "fft/fft.hpp"

namespace bismo::shard {

TilePlan TilePlan::make(double layout_nm, std::size_t full_dim,
                        std::size_t rows, std::size_t cols, double halo_nm) {
  if (!(layout_nm > 0.0)) {
    throw std::invalid_argument("TilePlan: layout_nm must be positive");
  }
  if (full_dim == 0 || rows == 0 || cols == 0) {
    throw std::invalid_argument("TilePlan: zero dimension");
  }
  if (full_dim % rows != 0 || full_dim % cols != 0) {
    throw std::invalid_argument(
        "TilePlan: full_dim " + std::to_string(full_dim) +
        " not divisible by tile grid " + std::to_string(rows) + "x" +
        std::to_string(cols) + " (cores must be whole pixels)");
  }
  if (halo_nm < 0.0) {
    throw std::invalid_argument("TilePlan: negative halo");
  }

  TilePlan plan;
  plan.layout_nm_ = layout_nm;
  plan.full_dim_ = full_dim;
  plan.rows_ = rows;
  plan.cols_ = cols;

  const double pixel = layout_nm / static_cast<double>(full_dim);
  plan.halo_px_ = static_cast<std::size_t>(std::ceil(halo_nm / pixel - 1e-9));

  const std::size_t core_h = full_dim / rows;
  const std::size_t core_w = full_dim / cols;
  // One shared window side: the larger core axis plus the halo on both
  // sides, rounded up to a smooth FFT length (a wider halo only helps),
  // capped at the full grid.  Sharing one side across all tiles (even for
  // non-square cores of an R != C grid) is what keeps every tile job the
  // same shape.
  plan.tile_dim_ = std::min(
      full_dim,
      next_smooth_length(std::max(core_h, core_w) + 2 * plan.halo_px_));

  plan.tiles_.reserve(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      TileWindow t;
      t.row = r;
      t.col = c;
      t.core_r0 = r * core_h;
      t.core_r1 = t.core_r0 + core_h;
      t.core_c0 = c * core_w;
      t.core_c1 = t.core_c0 + core_w;
      // Center the window on the core, then shift (never shrink) to stay
      // inside the grid.
      const auto place = [&](std::size_t core0, std::size_t core_len) {
        const std::size_t slack = plan.tile_dim_ - core_len;
        const std::size_t want = core0 >= slack / 2 ? core0 - slack / 2 : 0;
        return std::min(want, full_dim - plan.tile_dim_);
      };
      t.win_r0 = place(t.core_r0, core_h);
      t.win_c0 = place(t.core_c0, core_w);
      plan.tiles_.push_back(t);
    }
  }
  return plan;
}

}  // namespace bismo::shard

// SmoProblem: one clip's complete differentiable SMO instance -- target
// pattern, imaging engines, gradient engine, parameter initialization
// (Table 1), and final-solution metric evaluation (Sec. 2.2).
#ifndef BISMO_CORE_PROBLEM_HPP
#define BISMO_CORE_PROBLEM_HPP

#include <memory>
#include <vector>

#include "core/config.hpp"
#include "grad/abbe_grad.hpp"
#include "layout/layout.hpp"
#include "litho/abbe.hpp"
#include "metrics/epe.hpp"
#include "metrics/solution.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/workspace.hpp"

namespace bismo {

/// One clip's SMO problem instance.  Owns the engines; movable, not
/// copyable (engines hold internal references).
class SmoProblem {
 public:
  /// Build from a prerasterized binary target grid.  `workspaces` lets a
  /// caller (api::Session) share one warm WorkspaceSet across successive
  /// same-shaped problems so later jobs skip buffer allocation and FFT
  /// planning; null means a private set.
  SmoProblem(const SmoConfig& config, RealGrid target,
             ThreadPool* pool = nullptr,
             std::shared_ptr<sim::WorkspaceSet> workspaces = nullptr);

  /// Build from a layout clip (rasterized to the configured mask grid).
  SmoProblem(const SmoConfig& config, const Layout& clip,
             ThreadPool* pool = nullptr,
             std::shared_ptr<sim::WorkspaceSet> workspaces = nullptr);

  SmoProblem(const SmoProblem&) = delete;
  SmoProblem& operator=(const SmoProblem&) = delete;

  const SmoConfig& config() const noexcept { return config_; }
  const RealGrid& target() const noexcept { return target_; }
  const SourceGeometry& geometry() const noexcept { return *geometry_; }
  const AbbeImaging& abbe() const noexcept { return *abbe_; }
  /// The Abbe engine through the unified imaging interface.
  const sim::ImagingModel& imaging() const noexcept { return *abbe_; }
  const AbbeGradientEngine& engine() const noexcept { return *engine_; }
  ThreadPool* pool() const noexcept { return pool_; }

  /// Per-slot workspaces shared by every engine evaluating this problem
  /// (the Abbe engine, AM-SMO's per-cycle Hopkins rebuilds) so re-built
  /// engines reuse warm buffers instead of reallocating.
  const std::shared_ptr<sim::WorkspaceSet>& workspaces() const noexcept {
    return workspaces_;
  }

  /// theta_M0 from the target pattern (Table 1).
  RealGrid initial_theta_m() const;

  /// theta_J0 from the configured source template (Table 1).
  RealGrid initial_theta_j() const;

  /// Normalized nominal-dose aerial intensity for the given parameters
  /// (mask binarized when `binary_mask`) -- the input of both the resist
  /// model and the metric evaluation, exposed so the tiled execution layer
  /// can stitch intensities before thresholding.
  RealGrid aerial_image(const RealGrid& theta_m, const RealGrid& theta_j,
                        bool binary_mask = true) const;

  /// Continuous resist image at a dose corner for the given parameters
  /// (mask binarized when `binary_mask`).
  RealGrid resist_image(const RealGrid& theta_m, const RealGrid& theta_j,
                        DoseCorner corner, bool binary_mask = true) const;

  /// Evaluate the paper's metrics for a solution (binarized mask).
  SolutionMetrics evaluate_solution(const RealGrid& theta_m,
                                    const RealGrid& theta_j) const;

  /// The activated (grayscale) source for visualization.
  RealGrid source_image(const RealGrid& theta_j) const;

  /// The activated mask (continuous or binarized) for visualization.
  RealGrid mask_image(const RealGrid& theta_m, bool binary = false) const;

 private:
  SmoConfig config_;
  RealGrid target_;
  ThreadPool* pool_;
  std::shared_ptr<sim::WorkspaceSet> workspaces_;
  std::unique_ptr<SourceGeometry> geometry_;
  std::unique_ptr<AbbeImaging> abbe_;
  std::unique_ptr<AbbeGradientEngine> engine_;
};

}  // namespace bismo

#endif  // BISMO_CORE_PROBLEM_HPP

#include "core/problem.hpp"

#include <stdexcept>

#include "fft/fft.hpp"
#include "math/grid_ops.hpp"
#include "metrics/metrics.hpp"

namespace bismo {

SmoProblem::SmoProblem(const SmoConfig& config, RealGrid target,
                       ThreadPool* pool,
                       std::shared_ptr<sim::WorkspaceSet> workspaces)
    : config_(config),
      target_(std::move(target)),
      pool_(pool),
      workspaces_(workspaces ? std::move(workspaces)
                             : std::make_shared<sim::WorkspaceSet>()) {
  config_.validate();
  const std::size_t n = config_.optics.mask_dim;
  if (target_.rows() != n || target_.cols() != n) {
    throw std::invalid_argument("SmoProblem: target/mask_dim mismatch");
  }
  geometry_ =
      std::make_unique<SourceGeometry>(config_.source_dim, config_.optics);
  abbe_ = std::make_unique<AbbeImaging>(config_.optics, *geometry_, pool_,
                                        workspaces_);
  engine_ = std::make_unique<AbbeGradientEngine>(
      *abbe_, target_, config_.resist, config_.activation, config_.weights,
      config_.process_window, config_.source_cutoff);
}

SmoProblem::SmoProblem(const SmoConfig& config, const Layout& clip,
                       ThreadPool* pool,
                       std::shared_ptr<sim::WorkspaceSet> workspaces)
    : SmoProblem(config, clip.rasterize(config.optics.mask_dim), pool,
                 std::move(workspaces)) {}

RealGrid SmoProblem::initial_theta_m() const {
  return init_mask_params(target_, config_.activation);
}

RealGrid SmoProblem::initial_theta_j() const {
  const RealGrid j0 = make_source(*geometry_, config_.initial_source);
  return init_source_params(j0, config_.activation);
}

RealGrid SmoProblem::source_image(const RealGrid& theta_j) const {
  return activate_source(theta_j, *geometry_, config_.activation);
}

RealGrid SmoProblem::mask_image(const RealGrid& theta_m, bool binary) const {
  RealGrid m = activate_mask(theta_m, config_.activation);
  return binary ? binarize(m) : m;
}

RealGrid SmoProblem::aerial_image(const RealGrid& theta_m,
                                  const RealGrid& theta_j,
                                  bool binary_mask) const {
  const RealGrid mask = mask_image(theta_m, binary_mask);
  const RealGrid source = source_image(theta_j);
  ComplexGrid o = to_complex(mask);
  fft2(o);
  return abbe_->aerial(o, source, config_.source_cutoff).intensity;
}

RealGrid SmoProblem::resist_image(const RealGrid& theta_m,
                                  const RealGrid& theta_j, DoseCorner corner,
                                  bool binary_mask) const {
  const RealGrid intensity = aerial_image(theta_m, theta_j, binary_mask);
  const double d = dose_factor(corner, config_.process_window);
  return config_.resist.apply(intensity * (d * d));
}

SolutionMetrics SmoProblem::evaluate_solution(const RealGrid& theta_m,
                                              const RealGrid& theta_j) const {
  const RealGrid intensity =
      aerial_image(theta_m, theta_j, /*binary_mask=*/true);
  return evaluate_solution_metrics(intensity, target_, config_.resist,
                                   config_.weights, config_.process_window,
                                   config_.epe, config_.optics.pixel_nm);
}

}  // namespace bismo

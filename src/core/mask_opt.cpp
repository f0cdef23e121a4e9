#include "core/mask_opt.hpp"

#include <algorithm>
#include <stdexcept>

#include "grad/hopkins_grad.hpp"
#include "litho/hopkins.hpp"
#include "math/grid_ops.hpp"

namespace bismo {
namespace {

/// Block-majority downsampling of a binary grid by integer factor.
RealGrid downsample_binary(const RealGrid& grid, std::size_t factor) {
  const std::size_t n = grid.rows() / factor;
  RealGrid out(n, n, 0.0);
  const double half = static_cast<double>(factor * factor) / 2.0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      double acc = 0.0;
      for (std::size_t dr = 0; dr < factor; ++dr) {
        for (std::size_t dc = 0; dc < factor; ++dc) {
          acc += grid(r * factor + dr, c * factor + dc);
        }
      }
      out(r, c) = acc > half ? 1.0 : 0.0;
    }
  }
  return out;
}

/// Nearest-neighbour (pixel-replication) upsampling of parameters by 2x.
RealGrid upsample_params(const RealGrid& grid, std::size_t factor) {
  RealGrid out(grid.rows() * factor, grid.cols() * factor, 0.0);
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out(r, c) = grid(r / factor, c / factor);
    }
  }
  return out;
}

/// Optics of a level that runs `factor` times coarser than `optics`.
OpticsConfig coarsened(const OpticsConfig& optics, std::size_t factor) {
  OpticsConfig out = optics;
  out.mask_dim = optics.mask_dim / factor;
  out.pixel_nm = optics.pixel_nm * static_cast<double>(factor);
  return out;
}

}  // namespace

int hopkins_mo_levels(Method method, const OpticsConfig& optics) {
  if (method == Method::kNiltProxy) return 1;
  try {
    coarsened(optics, 2).validate();
  } catch (const std::invalid_argument&) {
    return 1;
  }
  return 2;
}

RunResult run_abbe_mo(const SmoProblem& problem, Method /*method*/,
                      const RunControl& control) {
  const SmoConfig& cfg = problem.config();
  RunRecorder rec(cfg, control);
  RealGrid theta_m = problem.initial_theta_m();
  RealGrid theta_j = problem.initial_theta_j();
  rec.descend(cfg.outer_steps, cfg.optimizer, cfg.lr_mask, theta_m,
              &SmoGradient::grad_theta_m, [&] {
                return problem.engine().evaluate(theta_m, theta_j,
                                                 GradRequest{true, false});
              });
  return rec.finish(std::move(theta_m), std::move(theta_j));
}

RunResult run_hopkins_mo(const SmoProblem& problem, Method method,
                         const RunControl& control) {
  const SmoConfig& cfg = problem.config();
  RunRecorder rec(cfg, control);
  // NILT: plain ILT with heavier truncation and no process-window term --
  // the weakest baseline of Table 3, by design of the original (Hopkins,
  // printability-only objective).  DAC23: the "multi-level" of DAC23-MILT.
  const bool nilt = method == Method::kNiltProxy;
  const int levels = hopkins_mo_levels(method, cfg.optics);
  const std::size_t kernels =
      nilt ? std::max<std::size_t>(1, cfg.socs_kernels / 3) : cfg.socs_kernels;
  LossWeights weights = cfg.weights;
  if (nilt) weights.eta = 0.0;

  const RealGrid theta_j = problem.initial_theta_j();
  const RealGrid source = problem.source_image(theta_j);

  // Coarse-to-fine schedule: level l uses grid dim / 2^(levels-1-l).  Each
  // coarse level takes outer_steps / levels steps (possibly none); the
  // final level takes the rest.
  const int coarse_steps = cfg.outer_steps / levels;
  RealGrid theta_m;
  for (int level = 0; level < levels; ++level) {
    const std::size_t factor = std::size_t{1}
                               << static_cast<std::size_t>(levels - 1 - level);
    const RealGrid target =
        factor == 1 ? problem.target()
                    : downsample_binary(problem.target(), factor);
    // theta_M starts at the coarsest level and is upsampled level by level,
    // also past a cancellation, so it always fits the problem's grid.
    theta_m = level == 0 ? init_mask_params(target, cfg.activation)
                         : upsample_params(theta_m, 2);
    const int steps = level + 1 < levels
                          ? coarse_steps
                          : cfg.outer_steps - coarse_steps * (levels - 1);
    if (steps == 0 || rec.stopped()) continue;

    const OpticsConfig optics = coarsened(cfg.optics, factor);

    // Coarse levels run at a different grid dimension, so they get their
    // own workspace set; the final (full-resolution) level shares the
    // problem's warm workspaces.
    const SourceGeometry geometry(cfg.source_dim, optics);
    const auto level_workspaces =
        factor == 1 ? problem.workspaces()
                    : std::make_shared<sim::WorkspaceSet>();
    const AbbeImaging abbe(optics, geometry, problem.pool(), level_workspaces);
    const SocsDecomposition socs(abbe, source, kernels, cfg.source_cutoff);
    const HopkinsImaging hopkins(optics, socs, problem.pool(),
                                 level_workspaces);
    const HopkinsGradientEngine engine(hopkins, target, cfg.resist,
                                       cfg.activation, weights,
                                       cfg.process_window);
    // Mean-reduced losses are commensurate across resolutions, so coarse
    // levels trace directly.
    rec.descend(steps, cfg.optimizer, cfg.lr_mask, theta_m,
                &SmoGradient::grad_theta_m,
                [&] { return engine.evaluate(theta_m); });
  }
  return rec.finish(std::move(theta_m), theta_j);
}

}  // namespace bismo

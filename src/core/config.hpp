// Central configuration for SMO runs: optics, activations, loss weights,
// learning rates, bilevel hyperparameters, iteration budgets.
//
// Defaults mirror the paper's Sec. 4 settings wherever they are
// CPU-feasible: gamma=1000, eta=3000, lambda=193, NA=1.35, sigma_o=0.95,
// sigma_i=0.63, Q=24, alpha_m=9, m0=1, alpha_j=2, j0=5, beta=30,
// xi=xi_M=xi_J=0.1, K=5, T=3.  The grid sizes are scaled down from the
// paper's Nj=35 / Nm=2048 (RTX 4090) to Nj=11 / Nm=256 defaults; both are
// plain knobs and every bench prints what it used.
#ifndef BISMO_CORE_CONFIG_HPP
#define BISMO_CORE_CONFIG_HPP

#include <cstddef>

#include "grad/loss.hpp"
#include "litho/activation.hpp"
#include "litho/optics.hpp"
#include "litho/resist.hpp"
#include "litho/source.hpp"
#include "metrics/epe.hpp"
#include "opt/optimizer.hpp"

namespace bismo {

/// Everything needed to set up and run any of the SMO methods.
struct SmoConfig {
  OpticsConfig optics{193.0, 1.35, 256, 8.0, 0.0};  ///< 2048 nm tile default
  std::size_t source_dim = 11;                      ///< Nj (paper: 35)
  SourceSpec initial_source{};                      ///< annular 0.95 / 0.63
  ActivationConfig activation{};                    ///< Table 1 defaults
  ResistModel resist{};                             ///< beta = 30
  LossWeights weights{};                            ///< gamma=1000, eta=3000
  ProcessWindow process_window{};                   ///< +/- 2% dose
  EpeConfig epe{};                                  ///< 15 nm constraint

  OptimizerKind optimizer = OptimizerKind::kAdam;  ///< outer updates
  double lr_mask = 0.1;    ///< xi_M
  double lr_source = 0.1;  ///< xi_J (also the inner unroll step size)

  // Bilevel hyperparameters (Algorithm 2).
  int unroll_steps = 3;           ///< T: inner SO steps per outer step
  int hyper_terms = 5;            ///< K: Neumann terms / CG iterations
  double cg_damping = 0.0;        ///< Tikhonov damping for BiSMO-CG
  /// Unused since the hypergradients became exact (grad/hvp.hpp); no
  /// config key sets it.  Kept only because the benchmark program passes
  /// it to HypergradientOps and the wire codec carries it.
  double fd_eps_scale = 1e-2;

  // Iteration budgets.
  int outer_steps = 40;   ///< BiSMO outer iterations / MO-only steps
  int am_cycles = 4;      ///< AM-SMO alternation cycles
  int am_so_steps = 10;   ///< SO steps per AM cycle ("until converged")
  int am_mo_steps = 10;   ///< MO steps per AM cycle

  std::size_t socs_kernels = 24;  ///< Q for Hopkins baselines
  double source_cutoff = 1e-9;    ///< forward skip threshold for j_sigma

  /// Sanity-check the composite configuration.
  void validate() const;
};

}  // namespace bismo

#endif  // BISMO_CORE_CONFIG_HPP

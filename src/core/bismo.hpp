// BiSMO: bilevel source mask optimization (paper Sec. 3.2, Algorithm 2).
//
// Upper level: MO over theta_M; lower level: SO over theta_J.
// Each outer step:
//   1. unroll T inner SO steps to track the best-response theta_J*(theta_M)
//      (warm-started: theta_J0 <- theta_JT, Algorithm 2 line 4);
//   2. form the hypergradient (Eq. 12)
//        dLmo/dthetaM - [d2Lso/dthetaM dthetaJ] w
//      where w approximates [d2Lso/dthetaJ^2]^{-1} dLmo/dthetaJ by
//        FD  (Eq. 13): w = alpha * v                      (K = 0 Neumann)
//        NMN (Eq. 16): w = alpha * sum_{k<=K} (I - alpha H)^k v
//        CG  (Eq. 18): K conjugate-gradient steps on H w = v, warm-started
//   3. update theta_M with the outer optimizer.
//
// Step 2 is exact (grad/hvp.hpp): one linearization from the engine's
// image cache, closed-form HVPs over the cached per-point images, and one
// two-seed backward sweep that returns the whole hypergradient.
//
// alpha is the inner step size xi_J, capped adaptively so the Neumann
// hypothesis ||I - alpha H|| < 1 (Lemma 2) holds along the probed
// direction; the FD variant shares the cap, preserving the paper's
// "FD == NMN at K = 0" identity exactly.
#ifndef BISMO_CORE_BISMO_HPP
#define BISMO_CORE_BISMO_HPP

#include <string>

#include "core/problem.hpp"
#include "core/run_control.hpp"
#include "core/trace.hpp"
#include "opt/optimizer.hpp"

namespace bismo {

/// Hypergradient computation strategy (Sec. 3.2.1-3.2.3).
enum class BismoVariant { kFd, kNmn, kCg };

/// BiSMO budgets and hyperparameters.
struct BismoOptions {
  int outer_steps = 40;  ///< upper-level MO iterations
  int unroll_steps = 3;  ///< T (the FD variant classically uses T = 1)
  int hyper_terms = 5;   ///< K: Neumann terms / CG iterations
  OptimizerKind outer_optimizer = OptimizerKind::kAdam;
  OptimizerKind inner_optimizer = OptimizerKind::kAdam;
  double lr_mask = 0.1;       ///< xi_M
  double lr_source = 0.1;     ///< xi_J (also the Neumann/FD alpha)
  double cg_damping = 0.0;    ///< Tikhonov damping for the CG solve
};

/// Run BiSMO with the chosen hypergradient variant.
RunResult run_bismo(const SmoProblem& problem, BismoVariant variant,
                    const BismoOptions& options,
                    const RunControl& control = {});

/// Human-readable variant name ("BiSMO-FD" etc.).
std::string to_string(BismoVariant variant);

}  // namespace bismo

#endif  // BISMO_CORE_BISMO_HPP

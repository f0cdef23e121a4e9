// BiSMO: bilevel source mask optimization (paper Sec. 3.2, Algorithm 2).
//
// Upper level: MO over theta_M; lower level: SO over theta_J.
// Each outer step:
//   1. unroll T inner SO steps (T = 1 for FD) to track the best-response
//      theta_J*(theta_M) (warm-started: theta_J0 <- theta_JT, Algorithm 2
//      line 4);
//   2. form the hypergradient (Eq. 12)
//        dLmo/dthetaM - [d2Lso/dthetaM dthetaJ] w
//      where w ~ [d2Lso/dthetaJ^2]^{-1} dLmo/dthetaJ is one InverseHvp
//      solve (grad/inverse_hvp.hpp):
//        NMN (Eq. 16): neumann, w = alpha * sum_{k<=K} (I - alpha H)^k v
//        FD  (Eq. 13): neumann at K = 0 (and T = 1), w = alpha * v
//        CG  (Eq. 18): cg, K steps on (H + damping I) w = v from w = 0
//   3. update theta_M with the outer optimizer.
//
// Step 2 is exact (grad/hvp.hpp): one linearization from the engine's
// image cache, closed-form HVPs over the cached per-point images, and one
// two-seed backward sweep that returns the whole hypergradient.
//
// alpha is the inner step size xi_J, capped so the Neumann hypothesis
// ||I - alpha H|| < 1 (Lemma 2) holds along v; FD, the same sum at K = 0,
// shares the cap.
#ifndef BISMO_CORE_BISMO_HPP
#define BISMO_CORE_BISMO_HPP

#include "core/problem.hpp"
#include "core/run_control.hpp"
#include "core/runner.hpp"
#include "core/trace.hpp"

namespace bismo {

/// Run BiSMO with the hypergradient of `Method::kBismoFd`, `kBismoCg` or
/// `kBismoNmn`.  T, K, the step sizes, the optimizer (inner and outer)
/// and the CG damping come from `problem.config()`; FD unrolls T = 1.
RunResult run_bismo(const SmoProblem& problem, Method method,
                    const RunControl& control);

}  // namespace bismo

#endif  // BISMO_CORE_BISMO_HPP

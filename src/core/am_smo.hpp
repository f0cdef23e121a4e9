// Alternating-minimization SMO (paper Algorithm 1) -- the SOTA baseline
// BiSMO is compared against:
//
//   repeat:  SO epoch  (theta_J updated, theta_M frozen)
//            MO epoch  (theta_M updated, theta_J frozen)
//
// in two flavours: Abbe-Abbe [12] (both epochs on the Abbe engine) and
// Abbe-Hopkins [13] (SO on Abbe, MO on Hopkins, with the TCC/SOCS
// decomposition rebuilt from the updated source at every cycle -- the
// expensive regeneration step responsible for that method's 19.5x TAT in
// Table 4).
#ifndef BISMO_CORE_AM_SMO_HPP
#define BISMO_CORE_AM_SMO_HPP

#include "core/problem.hpp"
#include "core/run_control.hpp"
#include "core/runner.hpp"
#include "core/trace.hpp"

namespace bismo {

/// Run AM-SMO as `Method::kAmAbbeAbbe` or `Method::kAmAbbeHopkins`, with
/// `am_cycles` x (`am_so_steps` + `am_mo_steps`) from `problem.config()`.
/// The trace interleaves SO and MO steps (the zig-zag loss of the paper's
/// Fig. 3).
RunResult run_am_smo(const SmoProblem& problem, Method method,
                     const RunControl& control);

}  // namespace bismo

#endif  // BISMO_CORE_AM_SMO_HPP

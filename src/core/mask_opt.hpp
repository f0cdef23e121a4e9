// Mask-only optimization (MO) drivers -- the baselines of Tables 3-4:
//
//   * run_abbe_mo     -- the paper's own Abbe-MO: exact Abbe imaging with
//                        PVB-aware loss, source fixed at its template.
//   * run_hopkins_mo  -- Hopkins/SOCS ILT.  For the NILT [7] proxy it runs
//                        one level with Q/3 kernels and no PVB term; for
//                        the DAC23-MILT [10] proxy two coarse-to-fine
//                        levels with Q kernels and the PVB term
//                        (multi-level lithography simulation), or one
//                        when the half-resolution grid would not validate.
//                        The proxies stand in for the closed-source
//                        baselines.
//
// Both read their budgets from `problem.config()`; `run_method` is the
// entry point.
#ifndef BISMO_CORE_MASK_OPT_HPP
#define BISMO_CORE_MASK_OPT_HPP

#include "core/problem.hpp"
#include "core/run_control.hpp"
#include "core/runner.hpp"
#include "core/trace.hpp"

namespace bismo {

/// Abbe-based MO: optimizes theta_M with theta_J frozen at the template.
RunResult run_abbe_mo(const SmoProblem& problem, Method method,
                      const RunControl& control);

/// Grid levels `run_hopkins_mo` runs for `method`: 1 for the NILT proxy;
/// for DAC23, 2 when the half-resolution optics (mask_dim / 2, pixel_nm
/// * 2) pass OpticsConfig::validate, else 1 (a mask_dim below 16 or a
/// pixel coarser than lambda / (8 NA)), with every outer step at full
/// resolution.
int hopkins_mo_levels(Method method, const OpticsConfig& optics);

/// Hopkins-based MO for `Method::kNiltProxy` or `Method::kDac23Proxy`.
/// The TCC is built from the frozen template source.  The returned
/// theta_j is the frozen initial.
RunResult run_hopkins_mo(const SmoProblem& problem, Method method,
                         const RunControl& control);

}  // namespace bismo

#endif  // BISMO_CORE_MASK_OPT_HPP

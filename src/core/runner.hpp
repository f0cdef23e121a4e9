// Unified method dispatch: every column of Tables 3-4 is one `Method`, one
// row of the method table in runner.cpp (name, CLI alias, whether it
// optimizes the source, driver).  Every driver reads its budgets and
// hyperparameters from the problem's SmoConfig.
#ifndef BISMO_CORE_RUNNER_HPP
#define BISMO_CORE_RUNNER_HPP

#include <string>
#include <vector>

#include "core/problem.hpp"
#include "core/run_control.hpp"
#include "core/trace.hpp"
#include "layout/generators.hpp"

namespace bismo {

/// The eight method columns of Table 3 (and Table 4).
enum class Method {
  kNiltProxy,      ///< MO: Hopkins ILT, few kernels, no PVB (NILT [7] proxy)
  kDac23Proxy,     ///< MO: multi-level Hopkins ILT + PVB (DAC23-MILT [10] proxy)
  kAbbeMo,         ///< MO: the paper's Abbe-MO
  kAmAbbeHopkins,  ///< AM-SMO, Abbe SO + Hopkins MO [13]
  kAmAbbeAbbe,     ///< AM-SMO, Abbe everywhere [12]
  kBismoFd,        ///< BiSMO, finite-difference hypergradient
  kBismoCg,        ///< BiSMO, conjugate-gradient hypergradient
  kBismoNmn,       ///< BiSMO, Neumann-series hypergradient
};

/// All methods in Table 3 column order.
const std::vector<Method>& all_methods();

/// Human-readable method name matching the paper's table headers.
std::string to_string(Method method);

/// True for methods that optimize the source as well as the mask.
bool optimizes_source(Method method);

/// Parse a method name.  Exact inverse of `to_string` (for every method m,
/// `method_from_string(to_string(m)) == m`); additionally accepts the
/// short CLI aliases (nilt, dac23, abbe-mo, am-ah, am-aa, bismo-fd,
/// bismo-cg, bismo-nmn), case-insensitively.  Throws std::invalid_argument
/// on an unknown name, listing the accepted spellings.
Method method_from_string(const std::string& name);

/// Parse a dataset-suite name.  Exact inverse of `to_string(DatasetKind)`
/// ("ICCAD13" / "ICCAD-L" / "ISPD19"), case-insensitive.  Throws
/// std::invalid_argument on an unknown name.
DatasetKind dataset_from_string(const std::string& name);

/// Expected trace length of `method` under `config`: one record per AM-SMO
/// SO/MO step, one per outer/MO step for every other method.
int planned_steps(Method method, const SmoConfig& config);

/// Run `method` on `problem` with budgets from `problem.config()`.
/// `control` provides optional per-step progress observation and
/// cooperative cancellation (a cancelled run returns the trace and
/// parameters accumulated so far with `RunResult::cancelled` set).
RunResult run_method(const SmoProblem& problem, Method method,
                     const RunControl& control = {});

}  // namespace bismo

#endif  // BISMO_CORE_RUNNER_HPP

#include "core/runner.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "core/am_smo.hpp"
#include "core/bismo.hpp"
#include "core/mask_opt.hpp"

namespace bismo {
namespace {

std::string lowered(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// Short CLI alias for a method (the historical bismo_cli spellings).
std::string method_alias(Method method) {
  switch (method) {
    case Method::kNiltProxy:
      return "nilt";
    case Method::kDac23Proxy:
      return "dac23";
    case Method::kAbbeMo:
      return "abbe-mo";
    case Method::kAmAbbeHopkins:
      return "am-ah";
    case Method::kAmAbbeAbbe:
      return "am-aa";
    case Method::kBismoFd:
      return "bismo-fd";
    case Method::kBismoCg:
      return "bismo-cg";
    case Method::kBismoNmn:
      return "bismo-nmn";
  }
  return "?";
}

}  // namespace

const std::vector<Method>& all_methods() {
  static const std::vector<Method> methods = {
      Method::kNiltProxy,  Method::kDac23Proxy,     Method::kAbbeMo,
      Method::kAmAbbeHopkins, Method::kAmAbbeAbbe,  Method::kBismoFd,
      Method::kBismoCg,    Method::kBismoNmn,
  };
  return methods;
}

std::string to_string(Method method) {
  switch (method) {
    case Method::kNiltProxy:
      return "NILT-proxy";
    case Method::kDac23Proxy:
      return "DAC23-MILT-proxy";
    case Method::kAbbeMo:
      return "Abbe-MO";
    case Method::kAmAbbeHopkins:
      return "AM-SMO(A-H)";
    case Method::kAmAbbeAbbe:
      return "AM-SMO(A-A)";
    case Method::kBismoFd:
      return "BiSMO-FD";
    case Method::kBismoCg:
      return "BiSMO-CG";
    case Method::kBismoNmn:
      return "BiSMO-NMN";
  }
  return "unknown";
}

bool optimizes_source(Method method) {
  switch (method) {
    case Method::kNiltProxy:
    case Method::kDac23Proxy:
    case Method::kAbbeMo:
      return false;
    default:
      return true;
  }
}

Method method_from_string(const std::string& name) {
  const std::string want = lowered(name);
  for (Method m : all_methods()) {
    if (want == lowered(to_string(m)) || want == method_alias(m)) return m;
  }
  std::string known;
  for (Method m : all_methods()) {
    if (!known.empty()) known += ", ";
    known += to_string(m) + " (" + method_alias(m) + ")";
  }
  throw std::invalid_argument("unknown method \"" + name +
                              "\"; expected one of: " + known);
}

DatasetKind dataset_from_string(const std::string& name) {
  const std::string want = lowered(name);
  std::string known;
  for (DatasetKind kind :
       {DatasetKind::kIccad13, DatasetKind::kIccadL, DatasetKind::kIspd19}) {
    if (want == lowered(to_string(kind))) return kind;
    if (!known.empty()) known += ", ";
    known += to_string(kind);
  }
  throw std::invalid_argument("unknown dataset \"" + name +
                              "\"; expected one of: " + known);
}

RunResult run_method(const SmoProblem& problem, Method method,
                     const RunControl& control) {
  const SmoConfig& cfg = problem.config();
  switch (method) {
    case Method::kNiltProxy: {
      // Plain ILT: heavier truncation, no process-window term -- the
      // weakest baseline of Table 3, by design of the original (Hopkins,
      // printability-only objective).
      HopkinsMoOptions opt;
      opt.base.steps = cfg.outer_steps;
      opt.base.optimizer = cfg.optimizer;
      opt.base.lr = cfg.lr_mask;
      opt.base.use_pvb = false;
      opt.kernels = std::max<std::size_t>(1, cfg.socs_kernels / 3);
      opt.levels = 1;
      RunResult r = run_hopkins_mo(problem, opt, control);
      r.method = to_string(method);
      return r;
    }
    case Method::kDac23Proxy: {
      HopkinsMoOptions opt;
      opt.base.steps = cfg.outer_steps;
      opt.base.optimizer = cfg.optimizer;
      opt.base.lr = cfg.lr_mask;
      opt.base.use_pvb = true;
      opt.kernels = cfg.socs_kernels;
      opt.levels = 2;  // the "multi-level" of DAC23-MILT
      RunResult r = run_hopkins_mo(problem, opt, control);
      r.method = to_string(method);
      return r;
    }
    case Method::kAbbeMo: {
      MoOptions opt;
      opt.steps = cfg.outer_steps;
      opt.optimizer = cfg.optimizer;
      opt.lr = cfg.lr_mask;
      opt.use_pvb = true;
      return run_abbe_mo(problem, opt, control);
    }
    case Method::kAmAbbeHopkins:
    case Method::kAmAbbeAbbe: {
      AmOptions opt;
      opt.cycles = cfg.am_cycles;
      opt.so_steps = cfg.am_so_steps;
      opt.mo_steps = cfg.am_mo_steps;
      opt.optimizer = cfg.optimizer;
      opt.lr_mask = cfg.lr_mask;
      opt.lr_source = cfg.lr_source;
      opt.kernels = cfg.socs_kernels;
      const AmMode mode = method == Method::kAmAbbeAbbe
                              ? AmMode::kAbbeAbbe
                              : AmMode::kAbbeHopkins;
      RunResult r = run_am_smo(problem, mode, opt, control);
      r.method = to_string(method);
      return r;
    }
    case Method::kBismoFd:
    case Method::kBismoCg:
    case Method::kBismoNmn: {
      BismoOptions opt;
      opt.outer_steps = cfg.outer_steps;
      opt.unroll_steps = method == Method::kBismoFd ? 1 : cfg.unroll_steps;
      opt.hyper_terms = cfg.hyper_terms;
      opt.outer_optimizer = cfg.optimizer;
      opt.inner_optimizer = cfg.optimizer;
      opt.lr_mask = cfg.lr_mask;
      opt.lr_source = cfg.lr_source;
      opt.cg_damping = cfg.cg_damping;
      BismoVariant variant = BismoVariant::kNmn;
      if (method == Method::kBismoFd) variant = BismoVariant::kFd;
      if (method == Method::kBismoCg) variant = BismoVariant::kCg;
      RunResult r = run_bismo(problem, variant, opt, control);
      r.method = to_string(method);
      return r;
    }
  }
  throw std::invalid_argument("run_method: unknown method");
}

}  // namespace bismo

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

/// One method: its Table 3 header, its CLI alias, whether it optimizes
/// the source, and the driver that runs it.
struct MethodRow {
  Method method;
  const char* name;
  const char* alias;
  bool optimizes_source;
  RunResult (*run)(const SmoProblem&, Method, const RunControl&);
};

/// Every method, in Table 3 column order (the enum's order).
constexpr MethodRow kMethods[] = {
    {Method::kNiltProxy, "NILT-proxy", "nilt", false, run_hopkins_mo},
    {Method::kDac23Proxy, "DAC23-MILT-proxy", "dac23", false, run_hopkins_mo},
    {Method::kAbbeMo, "Abbe-MO", "abbe-mo", false, run_abbe_mo},
    {Method::kAmAbbeHopkins, "AM-SMO(A-H)", "am-ah", true, run_am_smo},
    {Method::kAmAbbeAbbe, "AM-SMO(A-A)", "am-aa", true, run_am_smo},
    {Method::kBismoFd, "BiSMO-FD", "bismo-fd", true, run_bismo},
    {Method::kBismoCg, "BiSMO-CG", "bismo-cg", true, run_bismo},
    {Method::kBismoNmn, "BiSMO-NMN", "bismo-nmn", true, run_bismo},
};

const MethodRow& row(Method method) {
  for (const MethodRow& r : kMethods) {
    if (r.method == method) return r;
  }
  throw std::invalid_argument("unknown method");
}

}  // namespace

const std::vector<Method>& all_methods() {
  static const std::vector<Method> methods = [] {
    std::vector<Method> out;
    for (const MethodRow& r : kMethods) out.push_back(r.method);
    return out;
  }();
  return methods;
}

std::string to_string(Method method) { return row(method).name; }

bool optimizes_source(Method method) { return row(method).optimizes_source; }

Method method_from_string(const std::string& name) {
  const std::string want = lowered(name);
  std::string known;
  for (const MethodRow& r : kMethods) {
    if (want == lowered(r.name) || want == r.alias) return r.method;
    if (!known.empty()) known += ", ";
    known += std::string(r.name) + " (" + r.alias + ")";
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

int planned_steps(Method method, const SmoConfig& config) {
  if (row(method).run == run_am_smo) {
    return config.am_cycles * (config.am_so_steps + config.am_mo_steps);
  }
  return config.outer_steps;
}

RunResult run_method(const SmoProblem& problem, Method method,
                     const RunControl& control) {
  const MethodRow& r = row(method);
  RunResult result = r.run(problem, method, control);
  result.method = r.name;
  return result;
}

}  // namespace bismo

#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "api/job_spec.hpp"
#include "io/json.hpp"

namespace bismo::bench {

void usage_and_exit(const char* argv0, bool operands) {
  std::printf(
      "usage: %s %s[options]\n"
      "  --full              paper-closer scale (128 px / 1024 nm / Nj 9)\n"
      "  --nm N              mask grid dimension (default 64)\n"
      "  --tile NM           tile side in nm (default 512)\n"
      "  --nj N              source grid dimension (default 9)\n"
      "  --cases N           clips per dataset, at least 1 (default 2)\n"
      "  --steps N           outer/MO steps (default 60)\n"
      "  --unroll T          BiSMO inner SO steps (default 2)\n"
      "  --kterms K          Neumann terms / CG iterations (default 3)\n"
      "  --am-cycles N       AM-SMO cycles (default 5)\n"
      "  --am-steps N        SO/MO steps per AM cycle (default 12)\n"
      "  --threads N         worker threads (default: hardware)\n"
      "  --seed S            base RNG seed (default 2024)\n",
      argv0, operands ? "[case ...] " : "");
  std::exit(kUsageExit);
}

BenchArgs BenchArgs::parse(int argc, char** argv,
                           std::vector<std::string>* operands) {
  BenchArgs args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
        return argv[++i];
      };
      if (flag == "--help" || flag == "-h") {
        usage_and_exit(argv[0], operands != nullptr);
      } else if (flag == "--full") {
        args.full = true;
        args.mask_dim = 128;
        args.tile_nm = 1024.0;
        args.outer_steps = 80;
        args.hyper_terms = 5;
        args.unroll_steps = 3;
      } else if (flag == "--nm") {
        args.mask_dim = api::parse_size(flag, value());
      } else if (flag == "--tile") {
        args.tile_nm = api::parse_double(flag, value());
      } else if (flag == "--nj") {
        args.source_dim = api::parse_size(flag, value());
      } else if (flag == "--cases") {
        args.cases_per_dataset = api::parse_size(flag, value());
        if (args.cases_per_dataset == 0) {
          throw std::invalid_argument("--cases must be at least 1");
        }
      } else if (flag == "--steps") {
        args.outer_steps = api::parse_int(flag, value());
      } else if (flag == "--unroll") {
        args.unroll_steps = api::parse_int(flag, value());
      } else if (flag == "--kterms") {
        args.hyper_terms = api::parse_int(flag, value());
      } else if (flag == "--am-cycles") {
        args.am_cycles = api::parse_int(flag, value());
      } else if (flag == "--am-steps") {
        args.am_epoch_steps = api::parse_int(flag, value());
      } else if (flag == "--threads") {
        args.threads = api::parse_size(flag, value());
      } else if (flag == "--seed") {
        args.seed = api::parse_size(flag, value());
      } else if (flag.rfind("--benchmark", 0) == 0) {
        // Ignore google-benchmark flags so mixed invocation scripts work.
      } else if (operands != nullptr && flag.rfind('-', 0) != 0) {
        operands->push_back(flag);
      } else {
        throw std::invalid_argument("unknown flag: " + flag);
      }
    }
    (void)args.config();  // SmoConfig::validate rejects a bad budget
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage_and_exit(argv[0], operands != nullptr);
  }
  return args;
}

SmoConfig BenchArgs::config() const {
  SmoConfig cfg;
  cfg.optics.mask_dim = mask_dim;
  cfg.optics.pixel_nm = tile_nm / static_cast<double>(mask_dim);
  cfg.source_dim = source_dim;
  // The source starts from the generic conventional disc rather than the
  // paper's annular template: at bench scale (Nj = 9 vs the paper's 35)
  // the annular start is already near-optimal, which would idle the SO
  // component all methods are compared on.
  cfg.initial_source.shape = SourceShape::kConventional;
  cfg.initial_source.sigma_out = 0.95;
  // A movable source at small step budgets (Table 1's j0 = 5 saturates the
  // sigmoid so deeply that tens of Adam steps cannot light/extinguish a
  // source point).
  cfg.activation.source_init = 1.5;
  cfg.outer_steps = outer_steps;
  cfg.unroll_steps = unroll_steps;
  cfg.hyper_terms = hyper_terms;
  cfg.am_cycles = am_cycles;
  cfg.am_so_steps = am_epoch_steps;
  cfg.am_mo_steps = am_epoch_steps;
  cfg.validate();
  return cfg;
}

void BenchArgs::print_banner(const std::string& bench_name) const {
  std::printf("== %s ==\n", bench_name.c_str());
  std::printf(
      "config: mask %zux%zu px, tile %.0f nm (pixel %.2f nm), source %zux%zu,"
      " clips/dataset %zu\n",
      mask_dim, mask_dim, tile_nm, tile_nm / static_cast<double>(mask_dim),
      source_dim, source_dim, cases_per_dataset);
  std::printf(
      "budgets: outer/MO steps %d, T=%d, K=%d, AM %d x (%d SO + %d MO),"
      " seed %llu%s\n",
      outer_steps, unroll_steps, hyper_terms, am_cycles, am_epoch_steps,
      am_epoch_steps, static_cast<unsigned long long>(seed),
      full ? " [--full]" : "");
  std::printf(
      "note: paper scale is Nm=2048 / Nj=35 on GPU; shapes and ratios are\n"
      "the reproduction target, not absolute nm^2 values.\n\n");
}

BenchReport::BenchReport(std::string name, const BenchArgs& args)
    : name_(std::move(name)), args_(args) {}

void BenchReport::add(const std::string& label,
                      std::vector<std::pair<std::string, double>> metrics) {
  rows_.emplace_back(label, std::move(metrics));
}

std::string BenchReport::write() const {
  const std::string path = "BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return "";
  }
  JsonWriter w(out);
  w.begin_object();
  w.key("bench").value(name_);
  w.key("config").begin_object();
  w.key("mask_dim").value(args_.mask_dim);
  w.key("tile_nm").value(args_.tile_nm);
  w.key("source_dim").value(args_.source_dim);
  w.key("cases_per_dataset").value(args_.cases_per_dataset);
  w.key("outer_steps").value(args_.outer_steps);
  w.key("unroll_steps").value(args_.unroll_steps);
  w.key("hyper_terms").value(args_.hyper_terms);
  w.key("am_cycles").value(args_.am_cycles);
  w.key("am_epoch_steps").value(args_.am_epoch_steps);
  w.key("seed").value(static_cast<std::size_t>(args_.seed));
  w.key("full").value(args_.full);
  w.end_object();
  w.key("rows").begin_array();
  for (const auto& [label, metrics] : rows_) {
    w.begin_object();
    w.key("label").value(label);
    for (const auto& [key, value] : metrics) w.key(key).value(value);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::printf("machine-readable results: %s\n", path.c_str());
  return path;
}

}  // namespace bismo::bench

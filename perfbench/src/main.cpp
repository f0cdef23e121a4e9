// bismo_perfbench: run one benchmark workload and report its metrics.
//
//   bismo_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--out-dir DIR] [--commit ID] [--quick] [--corrupt]
//
// With --trace 0 the run measures the end-to-end metrics with tracing off;
// with --trace 1 it records spans around every call it makes into a layer
// and reports the per-layer metrics derived from them.  Either way the
// outputs are checked, a stamped result file is written to DIR, and the
// last line of standard output is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Normally launched through perfbench/run.py, which builds this binary
// first.  See perfbench/README.md.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "fft/kernels/kernel.hpp"
#include "io/json.hpp"
#include "sim/pipeline.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bismo_perfbench: %s\n"
               "usage: bismo_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--commit ID] [--quick] "
               "[--corrupt]\n",
               why);
  std::exit(2);
}

struct Stamp {
  std::string fft_backend = bismo::fft::backend_name();
  std::string fusion = bismo::sim::fusion_mode_name();
  std::string compiler = PERFBENCH_COMPILER;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  unsigned nproc = std::thread::hardware_concurrency();
  std::string commit = "unknown";
};

void write_stamp(bismo::JsonWriter& w, const Stamp& stamp) {
  w.key("stamp").begin_object();
  w.key("fft_backend").value(stamp.fft_backend);
  w.key("fusion").value(stamp.fusion);
  w.key("compiler").value(stamp.compiler);
  w.key("build_type").value(stamp.build_type);
  w.key("nproc").value(static_cast<std::size_t>(stamp.nproc));
  w.key("commit").value(stamp.commit);
  w.end_object();
}

void write_metrics(bismo::JsonWriter& w, const Outcome& outcome) {
  w.key("metrics").begin_object();
  for (const Metric& m : outcome.metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
}

/// The contract line: correct, attempted, failed, metrics -- one line.
std::string result_line(const Outcome& outcome) {
  std::ostringstream text;
  bismo::JsonWriter w(text, 0);
  w.begin_object();
  w.key("correct").value(outcome.failed == 0);
  w.key("attempted").value(outcome.attempted);
  w.key("failed").value(outcome.failed);
  write_metrics(w, outcome);
  w.end_object();
  std::string line;
  for (const char c : text.str()) {
    if (c != '\n') line += c;
  }
  return line;
}

/// The stamped result file beside the spans: what ran, on what, and how.
bool write_result_file(const std::string& path, const Options& opt,
                       const Stamp& stamp, const Outcome& outcome) {
  std::ofstream out(path);
  if (!out) return false;
  bismo::JsonWriter w(out);
  w.begin_object();
  w.key("workload").value(opt.workload);
  w.key("seed").value(static_cast<std::size_t>(opt.seed));
  w.key("seconds").value(opt.seconds);
  w.key("trace").value(opt.trace);
  write_stamp(w, stamp);
  w.key("correct").value(outcome.failed == 0);
  w.key("attempted").value(outcome.attempted);
  w.key("failed").value(outcome.failed);
  w.key("failed_frac")
      .value(static_cast<double>(outcome.failed) /
             static_cast<double>(std::max<std::size_t>(outcome.attempted, 1)));
  write_metrics(w, outcome);
  w.key("details").begin_array();
  for (const std::string& line : outcome.details) w.value(line);
  w.end_array();
  w.end_object();
  out << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Stamp stamp;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value after " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      opt.workload = next();
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(next().c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(next().c_str(), nullptr);
      have_seconds = opt.seconds > 0.0;
    } else if (flag == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      opt.out_dir = next();
    } else if (flag == "--commit") {
      stamp.commit = next();
    } else if (flag == "--quick") {
      opt.quick = true;
    } else if (flag == "--corrupt") {
      opt.corrupt = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) {
    known = known || name == opt.workload;
  }
  if (!known) usage(("unknown workload \"" + opt.workload + "\"").c_str());
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);

  Outcome outcome;
  try {
    outcome = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bismo_perfbench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  std::printf("# %s seed=%llu seconds=%g trace=%d | fft=%s fusion=%s "
              "%s %s nproc=%u commit=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, stamp.fft_backend.c_str(),
              stamp.fusion.c_str(), stamp.compiler.c_str(),
              stamp.build_type.c_str(), stamp.nproc, stamp.commit.c_str());
  for (const std::string& line : outcome.details) {
    std::printf("# %s\n", line.c_str());
  }
  for (const Metric& m : outcome.metrics) {
    std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-28s %14.6g (%zu of %zu requests)\n", "failed_frac",
              static_cast<double>(outcome.failed) /
                  static_cast<double>(
                      std::max<std::size_t>(outcome.attempted, 1)),
              outcome.failed, outcome.attempted);
  const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0") + ".json";
  if (write_result_file(path, opt, stamp, outcome)) {
    std::printf("# result: %s\n", path.c_str());
  }
  std::printf("%s\n", result_line(outcome).c_str());
  return 0;
}

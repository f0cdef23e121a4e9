// Shared infrastructure for the benches: command-line configuration and
// the machine-readable `BENCH_<name>.json` report.
//
// Scaling note: the paper runs Nm = 2048,
// Nj = 35 on an RTX 4090; the bench defaults are Nm = 64 (512 nm tile,
// 8 nm pixels), Nj = 9 so the whole suite completes in minutes on a laptop
// CPU.  `--full` switches to Nm = 128 / 1024 nm, where the SMO-vs-MO
// margins are closer to the paper's.  Every bench prints the configuration
// it ran.
#ifndef BISMO_BENCH_BENCH_COMMON_HPP
#define BISMO_BENCH_BENCH_COMMON_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "core/runner.hpp"
#include "core/trace.hpp"
#include "layout/generators.hpp"
#include "parallel/thread_pool.hpp"

namespace bismo::bench {

/// Bench-wide options parsed from argv.
struct BenchArgs {
  std::size_t mask_dim = 64;
  double tile_nm = 512.0;
  std::size_t source_dim = 9;
  std::size_t cases_per_dataset = 2;
  int outer_steps = 60;      ///< BiSMO outer steps == MO steps
  int unroll_steps = 2;      ///< T
  int hyper_terms = 3;       ///< K
  int am_cycles = 5;         ///< AM-SMO alternations
  int am_epoch_steps = 12;   ///< SO/MO steps per AM cycle
  std::size_t threads = 0;   ///< 0 = hardware concurrency
  std::uint64_t seed = 2024;
  bool full = false;         ///< --full: paper-closer scale

  /// Parse known flags with the checked number parsers.  Prints the usage
  /// and exits 2 on --help, a malformed or out-of-range value, or a
  /// configuration SmoConfig::validate rejects.  Bare words (not flags)
  /// are appended to `operands` when it is given, and rejected otherwise.
  static BenchArgs parse(int argc, char** argv,
                         std::vector<std::string>* operands = nullptr);

  /// The SmoConfig all benches share.
  SmoConfig config() const;

  /// Echo the configuration (every bench calls this first).
  void print_banner(const std::string& bench_name) const;
};

/// Print the usage ("[case ...]" before the flags when `operands`) and
/// exit 2.
[[noreturn]] void usage_and_exit(const char* argv0, bool operands = false);

/// Machine-readable bench results: accumulates labeled metric rows and
/// writes `BENCH_<name>.json` (bench name + configuration + rows) so every
/// driver's numbers feed perf-trajectory tracking without scraping stdout.
class BenchReport {
 public:
  /// `name` is the file suffix ("table3_sota" -> BENCH_table3_sota.json).
  BenchReport(std::string name, const BenchArgs& args);

  /// Append one result row: a label plus (metric, value) pairs.
  void add(const std::string& label,
           std::vector<std::pair<std::string, double>> metrics);

  /// Write `BENCH_<name>.json` in the working directory and return the
  /// path; best-effort (prints a warning and returns "" on I/O failure).
  std::string write() const;

 private:
  std::string name_;
  BenchArgs args_;
  std::vector<std::pair<std::string,
                        std::vector<std::pair<std::string, double>>>>
      rows_;
};

}  // namespace bismo::bench

#endif  // BISMO_BENCH_BENCH_COMMON_HPP

// Shared infrastructure for the paper-reproduction benches: command-line
// configuration, dataset construction, method execution with metric
// collection, and a result cache so Table 4 reuses Table 3's runs instead
// of recomputing them.
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
#include <optional>
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
  std::string cache_path = "bismo_bench_cache.csv";

  /// Parse known flags; exits with a usage message on --help / bad input.
  static BenchArgs parse(int argc, char** argv);

  /// The SmoConfig all benches share.
  SmoConfig config() const;

  /// Echo the configuration (every bench calls this first).
  void print_banner(const std::string& bench_name) const;
};

/// One (method, clip) outcome.
struct CaseResult {
  std::string dataset;
  std::string clip;
  Method method = Method::kAbbeMo;
  double l2_nm2 = 0.0;
  double pvb_nm2 = 0.0;
  double epe = 0.0;
  double tat_seconds = 0.0;
  long grad_evals = 0;
  double final_loss = 0.0;
};

/// All three suites' clips, generated per args.
struct BenchDatasets {
  std::vector<Dataset> suites;
};

/// Build the ICCAD13 / ICCAD-L / ISPD19-like suites at bench scale.
BenchDatasets make_bench_datasets(const BenchArgs& args);

/// Run `method` on one clip and collect metrics.
CaseResult run_case(const BenchArgs& args, const Dataset& suite,
                    std::size_t clip_index, Method method, ThreadPool& pool);

/// Run every method over every clip (the Table 3/4 protocol), using the
/// cache when a compatible file exists.
std::vector<CaseResult> run_full_comparison(const BenchArgs& args,
                                            ThreadPool& pool);

/// Cache I/O: results keyed by a configuration fingerprint.
void save_cache(const BenchArgs& args, const std::vector<CaseResult>& results);
std::optional<std::vector<CaseResult>> load_cache(const BenchArgs& args);

/// Configuration fingerprint for cache validity.
std::string config_fingerprint(const BenchArgs& args);

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

  /// Append every (method, clip) case as one row (the Table 3/4 drivers).
  void add_case_results(const std::vector<CaseResult>& results);

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

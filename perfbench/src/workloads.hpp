// The benchmark's workloads and the metrics they report.
//
//   bismo_128      one client, one BiSMO-NMN / BiSMO-CG job at a time on a
//                  4-thread Session, 128^2 masks, 11^2 sources;
//   serve_mix      one submitter keeping 8 mixed jobs (64^2 BiSMO-NMN,
//                  64^2 AM-SMO(A-H), tiny 32^2 Abbe-MO, 96^2 Abbe-MO)
//                  outstanding against a 4-lane Session;
//   tiled_cluster  repeated 4x4 tiled sweeps of one 512^2 ICCAD-L layout
//                  through shard::TileScheduler and a net::Dispatcher over
//                  two forked 2-thread workers.
//
// Every workload is a closed loop whose inputs derive from the seed only.
// perfbench/README.md documents the metrics and which layer moves which.
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;    ///< per-layer run (spans on) instead of end-to-end
  bool quick = false;    ///< self-test scale: one setup, minimal panels
  bool corrupt = false;  ///< flip a bit in one checked result (self-test)
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;  ///< end-to-end, or per-layer when tracing
  std::size_t attempted = 0;
  std::size_t failed = 0;       ///< the run is correct when this is 0
  std::vector<std::string> details;  ///< human-readable lines (stdout)
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Run one workload per `options`.  Must be called before this process
/// has created any thread (tiled_cluster forks its workers first).
Outcome run_workload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP

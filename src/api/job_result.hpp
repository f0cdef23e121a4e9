// Structured outcome of one api job: the optimization run, the paper's
// final-solution metrics before and after, timing breakdown, and status --
// plus JSON/CSV serialization so results are machine-readable end to end.
#ifndef BISMO_API_JOB_RESULT_HPP
#define BISMO_API_JOB_RESULT_HPP

#include <ostream>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "core/trace.hpp"

namespace bismo::api {

/// Everything one job produced.
struct JobResult {
  std::string job_name;     ///< JobSpec::display_name()
  std::string method;       ///< human-readable method name
  std::string clip;         ///< clip description
  RunResult run;            ///< trace, final parameters, wall time
  SolutionMetrics before;   ///< initial-parameter metrics
  SolutionMetrics after;    ///< final-solution metrics
  double setup_seconds = 0.0;  ///< problem construction (rasterize, engines)
  double total_seconds = 0.0;  ///< setup + optimization + evaluation
  double queued_ms = 0.0;  ///< submit -> lane pickup (serving queue latency)
  double run_ms = 0.0;     ///< lane pickup -> terminal status
  bool workspaces_reused = false;  ///< warm WorkspaceSet from a prior job
  std::size_t workspace_evictions = 0;  ///< idle sets evicted at release
  std::size_t queue_depth = 0;  ///< dispatch-queue depth at submission
  bool shed = false;  ///< cancelled by the shed-oldest admission policy
  std::size_t retries = 0;  ///< times a cluster dispatcher resubmitted the
                            ///< job after losing its worker (0 in-process)
  std::string fft_backend;  ///< FFT kernel backend the job ran on
                            ///< ("scalar" | "avx2"); benches and perf
                            ///< tracking key results by it
  std::string error;        ///< non-empty when the job failed

  bool ok() const noexcept { return error.empty(); }
  bool cancelled() const noexcept { return run.cancelled; }
};

/// Terminal-status label for serialization: "done", "failed", "cancelled".
const char* status_label(const JobResult& result) noexcept;

/// Serialize one result as a JSON object (includes the per-step trace).
void write_json(std::ostream& out, const JobResult& result);

/// Serialize a batch as a JSON document: {"jobs": [...], summary fields}.
void write_json(std::ostream& out, const std::vector<JobResult>& results);

/// Per-step trace as CSV (step, loss, l2, pvb, seconds).
void write_trace_csv(std::ostream& out, const JobResult& result);

/// One-row-per-job batch summary as CSV, including the serving latency
/// split (queued_ms, run_ms) so end-to-end latency is observable.
void write_summary_csv(std::ostream& out,
                       const std::vector<JobResult>& results);

}  // namespace bismo::api

#endif  // BISMO_API_JOB_RESULT_HPP

#include "api/job_result.hpp"

#include <limits>
#include <sstream>

#include "io/csv.hpp"
#include "io/json.hpp"

namespace bismo::api {
namespace {

void write_metrics(JsonWriter& w, const SolutionMetrics& m) {
  w.begin_object();
  w.key("l2_nm2").value(m.l2_nm2);
  w.key("pvb_nm2").value(m.pvb_nm2);
  w.key("epe_violations").value(m.epe_violations);
  w.key("epe_samples").value(m.epe_samples);
  w.key("loss").value(m.loss);
  w.end_object();
}

void write_result_object(JsonWriter& w, const JobResult& r) {
  w.begin_object();
  w.key("job").value(r.job_name);
  w.key("method").value(r.method);
  w.key("clip").value(r.clip);
  w.key("ok").value(r.ok());
  if (!r.ok()) w.key("error").value(r.error);
  w.key("status").value(std::string(status_label(r)));
  w.key("cancelled").value(r.cancelled());
  w.key("setup_seconds").value(r.setup_seconds);
  w.key("run_seconds").value(r.run.wall_seconds);
  w.key("total_seconds").value(r.total_seconds);
  w.key("queued_ms").value(r.queued_ms);
  w.key("run_ms").value(r.run_ms);
  w.key("gradient_evaluations").value(r.run.gradient_evaluations);
  w.key("workspaces_reused").value(r.workspaces_reused);
  w.key("workspace_evictions").value(r.workspace_evictions);
  w.key("queue_depth").value(r.queue_depth);
  w.key("shed").value(r.shed);
  w.key("retries").value(r.retries);
  w.key("fft_backend").value(r.fft_backend);
  w.key("before");
  write_metrics(w, r.before);
  w.key("after");
  write_metrics(w, r.after);
  w.key("trace").begin_array();
  for (const StepRecord& rec : r.run.trace) {
    w.begin_object();
    w.key("step").value(rec.step);
    w.key("loss").value(rec.loss);
    w.key("l2").value(rec.l2);
    w.key("pvb").value(rec.pvb);
    w.key("seconds").value(rec.seconds);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string format_double(double value) {
  // Match CsvWriter::row / the JSON writer: full round-trip precision.
  std::ostringstream s;
  s.precision(std::numeric_limits<double>::max_digits10);
  s << value;
  return s.str();
}

}  // namespace

const char* status_label(const JobResult& result) noexcept {
  if (!result.ok()) return "failed";
  if (result.cancelled()) return "cancelled";
  return "done";
}

void write_json(std::ostream& out, const JobResult& result) {
  JsonWriter w(out);
  write_result_object(w, result);
}

void write_json(std::ostream& out, const std::vector<JobResult>& results) {
  JsonWriter w(out);
  w.begin_object();
  std::size_t ok = 0;
  std::size_t cancelled = 0;
  double total = 0.0;
  for (const JobResult& r : results) {
    ok += r.ok() ? 1 : 0;
    cancelled += r.cancelled() ? 1 : 0;
    total += r.total_seconds;
  }
  w.key("job_count").value(results.size());
  w.key("ok_count").value(ok);
  w.key("cancelled_count").value(cancelled);
  w.key("total_seconds").value(total);
  w.key("jobs").begin_array();
  for (const JobResult& r : results) write_result_object(w, r);
  w.end_array();
  w.end_object();
}

void write_trace_csv(std::ostream& out, const JobResult& result) {
  CsvWriter csv(out);
  csv.header({"step", "loss", "l2", "pvb", "seconds"});
  for (const StepRecord& rec : result.run.trace) {
    csv.row({static_cast<double>(rec.step), rec.loss, rec.l2, rec.pvb,
             rec.seconds});
  }
}

void write_summary_csv(std::ostream& out,
                       const std::vector<JobResult>& results) {
  CsvWriter csv(out);
  csv.header({"job", "method", "clip", "status", "queued_ms", "run_ms",
              "setup_seconds", "run_seconds", "total_seconds", "l2_nm2",
              "pvb_nm2", "epe_violations", "fft_backend"});
  for (const JobResult& r : results) {
    csv.row_strings({r.job_name, r.method, r.clip, status_label(r),
                     format_double(r.queued_ms), format_double(r.run_ms),
                     format_double(r.setup_seconds),
                     format_double(r.run.wall_seconds),
                     format_double(r.total_seconds),
                     format_double(r.after.l2_nm2),
                     format_double(r.after.pvb_nm2),
                     std::to_string(r.after.epe_violations), r.fft_backend});
  }
}

}  // namespace bismo::api

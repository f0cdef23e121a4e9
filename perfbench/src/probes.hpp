// Per-layer probes: direct, traced calls into each layer's public
// functions at the shapes a workload uses, plus the derivation of every
// per-layer metric from the recorded spans.
#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include <cstddef>
#include <vector>

#include "api/session.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct ProbePlan {
  /// A representative job of the workload: its clip, method, shape and
  /// budget drive the sim/grad/core/metrics/parallel probes.
  bismo::api::JobSpec spec;
  /// Grid sizes of the fft probe; the first one is reported.
  std::vector<std::size_t> fft_dims;
  /// Ship `spec` once through an in-process net::Worker (workloads whose
  /// requests do not already cross the wire).
  bool net_round_trip = true;
  /// Plan and stitch a 2x2 tiling of `spec`'s clip (workloads whose
  /// requests do not already run through shard::TileScheduler).
  bool shard_probe = true;
};

/// Run every probe of `plan` on `session` (a 4-thread Session), recording
/// spans on `tracer`.
void run_probes(bismo::api::Session& session, const ProbePlan& plan,
                Tracer& tracer);

/// Record one net codec span: encode + decode of `spec` as a submit frame
/// payload and `result` as a result frame payload.
void probe_codec(const bismo::api::JobSpec& spec,
                 const bismo::api::JobResult& result, std::uint64_t job,
                 Tracer& tracer);

/// Every per-layer metric, derived from the spans of one traced run.
std::vector<Metric> derive_per_layer(const SpanIndex& spans,
                                     double trace_overhead_pct);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_HPP

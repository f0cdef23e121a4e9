// Serving-throughput bench (src/api/ async job service).
//
// Part 1 -- classic stream of heterogeneous medium jobs (two mask shapes,
// alternating) under two scheduling regimes:
//
//   transient   -- the pre-service pattern: a FRESH Session per wave of
//                  jobs, so every wave pays lane/pool spin-up, cold FFT
//                  plans, and cold workspaces, and the machine idles
//                  between waves (this is what PR 3's per-batch lane pools
//                  amounted to across a request stream),
//   persistent  -- one long-lived Session: the whole stream is submitted
//                  up front and the persistent lane scheduler drains it,
//                  leasing warm pools and warm per-shape WorkspaceSets
//                  across jobs.
//
// Part 2 -- sustained load: two producer threads push a stream of tiny
// sub-millisecond jobs (32 x 32 clip, one outer step) through the sharded
// lock-free dispatch queue, the regime this PR's serving core targets:
//
//   sustained_legacy        -- the persistent scheduler without its
//                              small-job features: no coalescing, no
//                              warm lane-pool cache,
//   sustained               -- the full serving core: sharded rings, work
//                              stealing, same-key job coalescing,
//   sustained_overload_shed -- offered load far above a small queue
//                              capacity under the shed-oldest admission
//                              policy (bounded queue latency, some jobs
//                              sacrificed),
//   sustained_overload_rej  -- same overload under the reject policy
//                              (fail-fast admission).
//
// Part 3 -- event rate: the sustained stream again with a session-wide
// observer of realistic per-event cost (events_batched).
//
// Reported per regime: jobs/sec at saturation, p50/p95/p99 queue latency
// (JobResult::queued_ms), steal/coalesce/shed/reject counters.  The bench
// FAILS (non-zero exit) when the sustained serving core is not at least
// 5x the classic persistent regime's jobs/sec -- the cheap-job dispatch
// overhead is exactly what the sharded queue exists to kill -- or when
// warm lane pools are never reused.
//
// Results land in BENCH_serve.json.  `--quick` shrinks the sustained
// streams for CI smoke runs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "bench_common.hpp"
#include "math/grid_ops.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

/// Outcome of one sustained-load run.
struct SustainedResult {
  double seconds = 0.0;
  std::size_t ok = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  bismo::api::Session::Stats stats;

  double jobs_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(ok) / seconds : 0.0;
  }
};

/// Two producer threads race `stream` into one session; every handle is
/// then harvested.  Queue-latency percentiles cover completed jobs only
/// (shed/rejected jobs never ran).
SustainedResult run_sustained(const bismo::api::Session::Options& options,
                              const std::vector<bismo::api::JobSpec>& stream,
                              const bismo::api::SubmitOptions& submit) {
  using namespace bismo;
  api::Session session(options);
  const std::size_t n = stream.size();
  std::vector<api::JobHandle> handles(n);

  const auto t0 = Clock::now();
  constexpr std::size_t kProducers = 2;
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t j = p; j < n; j += kProducers) {
        handles[j] = session.submit(stream[j], submit);
      }
    });
  }
  for (auto& t : producers) t.join();

  SustainedResult out;
  std::vector<double> queued_ms;
  queued_ms.reserve(n);
  for (const api::JobHandle& handle : handles) {
    const api::JobResult& r = handle.wait();
    // Shed victims finalize cancelled with an empty error; only jobs that
    // actually completed count as served.
    if (r.ok() && !r.cancelled()) {
      ++out.ok;
      queued_ms.push_back(r.queued_ms);
    }
  }
  out.seconds = seconds_since(t0);
  out.p50_ms = percentile(queued_ms, 0.50);
  out.p95_ms = percentile(queued_ms, 0.95);
  out.p99_ms = percentile(queued_ms, 0.99);
  out.stats = session.stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bismo;
  using namespace bismo::bench;

  // --quick is this bench's own flag; strip it before the shared parser
  // (which exits on flags it does not know).
  bool quick = false;
  std::vector<char*> filtered;
  filtered.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      continue;
    }
    filtered.push_back(argv[i]);
  }
  BenchArgs args =
      BenchArgs::parse(static_cast<int>(filtered.size()), filtered.data());
  args.print_banner("serve: persistent lane scheduler vs transient pools");

  // A 16-job stream in 4 waves of 4, alternating between two shapes so
  // workspace reuse is contended like a real mixed clip stream.
  constexpr std::size_t kWaves = 4;
  constexpr std::size_t kWaveSize = 4;
  constexpr std::size_t kJobs = kWaves * kWaveSize;
  const std::size_t small_dim = args.mask_dim;
  const std::size_t large_dim = (3 * args.mask_dim) / 2;

  std::vector<api::JobSpec> stream;
  stream.reserve(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) {
    api::JobSpec spec;
    spec.name = "serve" + std::to_string(j);
    spec.method = Method::kAbbeMo;
    spec.config = args.config();
    spec.clip = api::ClipSource::generated(DatasetKind::kIccad13,
                                           args.seed + j);
    const std::size_t dim = (j % 2 == 0) ? small_dim : large_dim;
    spec.config_overrides = {"mask_dim=" + std::to_string(dim),
                             "outer_steps=6"};
    spec.evaluate_solution = false;
    stream.push_back(std::move(spec));
  }

  // Untimed warm-up: first-touch process-global state (the shared FFT
  // plan cache, allocator arenas) would otherwise bill entirely to
  // whichever regime runs first.
  {
    api::Session::Options options;
    options.threads = args.threads;
    api::Session warmup(options);
    (void)warmup.run(stream[0]);
    (void)warmup.run(stream[1]);
  }

  // -- transient: fresh Session (cold lanes, pools, workspaces) per wave.
  const auto transient_t0 = Clock::now();
  std::size_t transient_ok = 0;
  for (std::size_t w = 0; w < kWaves; ++w) {
    api::Session::Options options;
    options.threads = args.threads;
    api::Session session(options);
    const std::vector<api::JobSpec> wave(
        stream.begin() + static_cast<std::ptrdiff_t>(w * kWaveSize),
        stream.begin() + static_cast<std::ptrdiff_t>((w + 1) * kWaveSize));
    const std::vector<api::JobResult> results =
        session.run_batch(wave, api::Session::BatchOptions{kWaveSize});
    for (const api::JobResult& r : results) transient_ok += r.ok() ? 1 : 0;
  }
  const double transient_seconds = seconds_since(transient_t0);

  // -- persistent: one long-lived service, the whole stream submitted up
  // front (the waves exist only in how the stream was produced).
  api::Session::Options options;
  options.threads = args.threads;
  api::Session session(options);
  const auto persistent_t0 = Clock::now();
  api::SubmitOptions submit_options;
  submit_options.lanes_hint = kWaveSize;
  std::vector<api::JobHandle> handles =
      session.submit_batch(stream, submit_options);
  std::size_t persistent_ok = 0;
  std::vector<double> queued_ms;
  queued_ms.reserve(kJobs);
  for (const api::JobHandle& handle : handles) {
    const api::JobResult& r = handle.wait();
    persistent_ok += r.ok() ? 1 : 0;
    queued_ms.push_back(r.queued_ms);
  }
  const double persistent_seconds = seconds_since(persistent_t0);

  const double transient_jps =
      static_cast<double>(kJobs) / transient_seconds;
  const double persistent_jps =
      static_cast<double>(kJobs) / persistent_seconds;
  const double p50 = percentile(queued_ms, 0.50);
  const double p95 = percentile(queued_ms, 0.95);
  const api::Session::Stats stats = session.stats();

  std::printf("transient  : %5.2f jobs/sec (%zu/%zu ok, %.2f s)\n",
              transient_jps, transient_ok, kJobs, transient_seconds);
  std::printf("persistent : %5.2f jobs/sec (%zu/%zu ok, %.2f s), "
              "queue p50 %.1f ms p95 %.1f ms\n",
              persistent_jps, persistent_ok, kJobs, persistent_seconds, p50,
              p95);
  std::printf("speedup    : %5.2fx | warm workspaces %zu | warm pools %zu\n",
              persistent_jps / transient_jps, stats.workspace_reuses,
              stats.lane_pool_reuses);

  // -- Part 2: sustained tiny-job load through the sharded queue. --------
  const std::size_t sustained_jobs = quick ? 96 : 384;
  std::vector<api::JobSpec> tiny;
  tiny.reserve(sustained_jobs);
  for (std::size_t j = 0; j < sustained_jobs; ++j) {
    api::JobSpec spec;
    spec.name = "tiny" + std::to_string(j);
    spec.method = Method::kAbbeMo;
    spec.config = args.config();
    spec.clip = api::ClipSource::generated(DatasetKind::kIccad13, args.seed);
    spec.config_overrides = {"mask_dim=32", "source_dim=5", "socs_kernels=4",
                             "outer_steps=1"};
    spec.evaluate_solution = false;
    tiny.push_back(std::move(spec));
  }
  // Identical shape across the stream: one fingerprint keys them all.
  const std::uint64_t tiny_key = tiny.front().coalesce_fingerprint();
  {
    api::Session::Options warm;
    warm.threads = args.threads;
    api::Session warmup(warm);
    (void)warmup.run(tiny[0]);
  }

  // The scheduler without its small-job features: no coalescing, no warm
  // pool cache.
  api::Session::Options legacy;
  legacy.threads = args.threads;
  legacy.coalesce_limit = 1;
  legacy.pool_cache_cap = 0;
  const SustainedResult legacy_run =
      run_sustained(legacy, tiny, api::SubmitOptions{});

  // The full serving core (defaults) + the shared coalesce key.
  api::Session::Options serving;
  serving.threads = args.threads;
  api::SubmitOptions coalesced_submit;
  coalesced_submit.coalesce_key = tiny_key;
  const SustainedResult serving_run =
      run_sustained(serving, tiny, coalesced_submit);

  // Overload: offered load far above a small queue capacity.
  api::Session::Options overload = serving;
  overload.queue_capacity = quick ? 16 : 32;
  api::SubmitOptions shed_submit = coalesced_submit;
  shed_submit.queue_policy = api::QueuePolicy::kShedOldest;
  const SustainedResult shed_run = run_sustained(overload, tiny, shed_submit);
  api::SubmitOptions reject_submit = coalesced_submit;
  reject_submit.queue_policy = api::QueuePolicy::kReject;
  const SustainedResult reject_run =
      run_sustained(overload, tiny, reject_submit);

  std::printf(
      "sustained_legacy        : %7.1f jobs/sec (%zu/%zu ok, %.2f s), "
      "p50 %.2f p95 %.2f p99 %.2f ms\n",
      legacy_run.jobs_per_sec(), legacy_run.ok, sustained_jobs,
      legacy_run.seconds, legacy_run.p50_ms, legacy_run.p95_ms,
      legacy_run.p99_ms);
  std::printf(
      "sustained               : %7.1f jobs/sec (%zu/%zu ok, %.2f s), "
      "p50 %.2f p95 %.2f p99 %.2f ms, steals %zu coalesced %zu pools %zu\n",
      serving_run.jobs_per_sec(), serving_run.ok, sustained_jobs,
      serving_run.seconds, serving_run.p50_ms, serving_run.p95_ms,
      serving_run.p99_ms, serving_run.stats.steals,
      serving_run.stats.coalesced_jobs, serving_run.stats.lane_pool_reuses);
  std::printf(
      "sustained_overload_shed : %7.1f jobs/sec (%zu/%zu ok, shed %zu), "
      "p50 %.2f p95 %.2f p99 %.2f ms\n",
      shed_run.jobs_per_sec(), shed_run.ok, sustained_jobs,
      shed_run.stats.jobs_shed, shed_run.p50_ms, shed_run.p95_ms,
      shed_run.p99_ms);
  std::printf(
      "sustained_overload_rej  : %7.1f jobs/sec (%zu/%zu ok, rejected %zu), "
      "p50 %.2f p95 %.2f p99 %.2f ms\n",
      reject_run.jobs_per_sec(), reject_run.ok, sustained_jobs,
      reject_run.stats.jobs_rejected, reject_run.p50_ms, reject_run.p95_ms,
      reject_run.p99_ms);
  std::printf("sustained vs legacy     : %5.2fx | vs classic persistent: "
              "%5.1fx (gate >= 5x)\n",
              serving_run.jobs_per_sec() /
                  std::max(legacy_run.jobs_per_sec(), 1e-9),
              serving_run.jobs_per_sec() /
                  std::max(persistent_jps, 1e-9));

  // -- Part 3: event rate under an observer. -----------------------------
  // A session-wide observer with a realistic per-event cost (metrics
  // serialization, ~1 us).  Lanes append events to the session buffer and
  // one drainer delivers them outside the emission lock.
  std::atomic<std::uint64_t> event_count{0};
  api::Session::Options observed;
  observed.threads = args.threads;
  observed.on_event = [&event_count](const api::JobEvent&) {
    event_count.fetch_add(1, std::memory_order_relaxed);
    volatile unsigned sink = 0;
    for (unsigned k = 0; k < 400; ++k) sink = sink + k;
  };
  const SustainedResult batched_run =
      run_sustained(observed, tiny, api::SubmitOptions{});
  const double batched_eps =
      batched_run.seconds > 0.0
          ? static_cast<double>(event_count.load(std::memory_order_relaxed)) /
                batched_run.seconds
          : 0.0;
  std::printf(
      "events_batched          : %7.1f jobs/sec, %9.0f events/sec\n",
      batched_run.jobs_per_sec(), batched_eps);

  BenchReport report("serve", args);
  report.add("transient", {{"jobs_per_sec", transient_jps},
                           {"seconds", transient_seconds},
                           {"ok", static_cast<double>(transient_ok)}});
  report.add("persistent",
             {{"jobs_per_sec", persistent_jps},
              {"seconds", persistent_seconds},
              {"ok", static_cast<double>(persistent_ok)},
              {"queued_ms_p50", p50},
              {"queued_ms_p95", p95},
              {"workspace_reuses",
               static_cast<double>(stats.workspace_reuses)},
              {"lane_pool_reuses",
               static_cast<double>(stats.lane_pool_reuses)}});
  const auto sustained_row = [](const SustainedResult& r) {
    return std::vector<std::pair<std::string, double>>{
        {"jobs_per_sec", r.jobs_per_sec()},
        {"seconds", r.seconds},
        {"ok", static_cast<double>(r.ok)},
        {"queued_ms_p50", r.p50_ms},
        {"queued_ms_p95", r.p95_ms},
        {"queued_ms_p99", r.p99_ms},
        {"steals", static_cast<double>(r.stats.steals)},
        {"coalesced_jobs", static_cast<double>(r.stats.coalesced_jobs)},
        {"jobs_shed", static_cast<double>(r.stats.jobs_shed)},
        {"jobs_rejected", static_cast<double>(r.stats.jobs_rejected)},
        {"lane_pool_reuses", static_cast<double>(r.stats.lane_pool_reuses)}};
  };
  report.add("sustained_legacy", sustained_row(legacy_run));
  report.add("sustained", sustained_row(serving_run));
  report.add("sustained_overload_shed", sustained_row(shed_run));
  report.add("sustained_overload_reject", sustained_row(reject_run));
  report.add("events_batched",
             {{"jobs_per_sec", batched_run.jobs_per_sec()},
              {"events_per_sec", batched_eps},
              {"seconds", batched_run.seconds}});
  report.add("speedup",
             {{"persistent_over_transient", persistent_jps / transient_jps},
              {"sustained_over_legacy",
               serving_run.jobs_per_sec() /
                   std::max(legacy_run.jobs_per_sec(), 1e-9)},
              {"sustained_over_persistent",
               serving_run.jobs_per_sec() /
                   std::max(persistent_jps, 1e-9)}});
  // Warm lane-pool probe: concurrent same-shape batches at a FIXED width
  // (independent of this machine's core count -- width-1 sessions never
  // lease pools at all) must hit the pool cache on the second batch.  This
  // is the lane_pool_reuses == 0 regression this PR fixes.
  std::size_t probe_reuses = 0;
  {
    api::Session::Options probe;
    probe.threads = 4;
    probe.scheduler_lanes = 2;
    api::Session pool_session(probe);
    const std::vector<api::JobSpec> four(4, tiny[0]);
    (void)pool_session.run_batch(four, api::Session::BatchOptions{2});
    (void)pool_session.run_batch(four, api::Session::BatchOptions{2});
    probe_reuses = pool_session.stats().lane_pool_reuses;
  }
  std::printf("pool probe              : %zu warm lane-pool reuses\n",
              probe_reuses);
  report.add("pool_probe",
             {{"lane_pool_reuses", static_cast<double>(probe_reuses)}});
  report.write();

  // Throughput gates: the serving core must dispatch cheap jobs at least
  // 5x faster than the classic persistent stream of medium jobs, and the
  // warm lane-pool cache must actually be hit.
  bool gate_ok = true;
  if (serving_run.jobs_per_sec() < 5.0 * persistent_jps) {
    std::printf("GATE FAILED: sustained %.1f jobs/sec < 5x persistent "
                "%.1f jobs/sec\n",
                serving_run.jobs_per_sec(), persistent_jps);
    gate_ok = false;
  }
  if (probe_reuses == 0) {
    std::printf(
        "GATE FAILED: concurrent same-shape batches never reused a "
        "warm lane pool\n");
    gate_ok = false;
  }
  return gate_ok ? 0 : 1;
}

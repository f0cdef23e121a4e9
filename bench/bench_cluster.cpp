// Distributed-serving bench (src/net/): jobs/sec and tiles/sec scaling
// from one in-process session to a spawned local worker cluster.
//
// Cases (jobs of 64 px clips and 64 outer steps without solution
// evaluation -- 60-75 ms each on one x86-64 core -- so each one
// outweighs the wire round-trip and the scaling cases measure execution,
// not dispatch latency; each scaling case streams the job list repeatedly
// for at least kMinCaseSeconds):
//
//   inprocess   -- Session(threads=1) run_batch baseline,
//   cluster_1   -- net::Dispatcher over ONE spawned worker process
//                  (adds the full wire round-trip per job),
//   cluster_4   -- the same dispatcher over FOUR spawned workers,
//   tiled       -- a 2x2 tiled sweep (shard::TileScheduler) submitted
//                  through the dispatcher with locality placement vs the
//                  same sweep in-process,
//   fault       -- a separate 2-worker cluster; one worker is SIGKILLed
//                  mid-batch and every job must still complete via
//                  automatic retry.
//
// Correctness gates (always enforced, exit 1 on failure):
//   * cluster results bitwise-identical to the in-process run (same FFT
//     backend in every forked worker),
//   * tiled sweep through the dispatcher bitwise-identical per tile,
//   * after the mid-batch kill, all jobs complete, results stay bitwise
//     identical, and at least one JobResult records a retry.
//
// Scaling gate (enforced only when the machine can express it, i.e.
// hardware_concurrency() >= 4; advisory otherwise): cluster_4 must reach
// >= 2.5x cluster_1 jobs/sec.  A wall-clock failure alone exits 2, so a
// caller on shared hardware can tolerate it and still fail on exit 1.
//
// Results land in BENCH_cluster.json.  `--quick` shrinks the job list
// (and so the fault case) for CI smoke runs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "bench_common.hpp"
#include "net/net.hpp"
#include "shard/shard.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool grids_identical(const bismo::RealGrid& a, const bismo::RealGrid& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool results_identical(const std::vector<bismo::api::JobResult>& a,
                       const std::vector<bismo::api::JobResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].ok() || !b[i].ok()) return false;
    if (!grids_identical(a[i].run.theta_m, b[i].run.theta_m)) return false;
    if (!grids_identical(a[i].run.theta_j, b[i].run.theta_j)) return false;
  }
  return true;
}

/// Minimum wall time of one scaling case.
constexpr double kMinCaseSeconds = 2.0;

/// Jobs/sec and wall time of one scaling case: `run_pass` (one pass over
/// the job list, returning its results) repeats until kMinCaseSeconds
/// have elapsed.  `*identical` is cleared when any pass differs from
/// `reference`.
struct Rate {
  double jobs_per_sec = 0.0;
  double seconds = 0.0;
};

template <typename RunPass>
Rate timed_passes(const std::vector<bismo::api::JobResult>& reference,
                  RunPass&& run_pass, bool* identical) {
  std::size_t jobs = 0;
  const auto t0 = Clock::now();
  do {
    if (!results_identical(run_pass(), reference)) *identical = false;
    jobs += reference.size();
  } while (seconds_since(t0) < kMinCaseSeconds);
  const double seconds = seconds_since(t0);
  return Rate{static_cast<double>(jobs) / seconds, seconds};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bismo;
  using namespace bismo::bench;

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

  // Fork the worker processes BEFORE anything creates a thread in this
  // process (BenchArgs::parse and Session construction are thread-free,
  // but spawning first keeps the invariant unmissable).
  net::WorkerOptions wopts;
  wopts.threads = 1;
  wopts.name = "bench";
  net::SpawnedCluster scale_cluster;
  net::SpawnedCluster fault_cluster;
  try {
    scale_cluster = net::spawn_local_workers(4, wopts);
    fault_cluster = net::spawn_local_workers(2, wopts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_cluster: cannot spawn workers: %s\n",
                 e.what());
    return 1;
  }

  BenchArgs args =
      BenchArgs::parse(static_cast<int>(filtered.size()), filtered.data());
  args.print_banner("cluster: dispatcher over spawned worker processes");

  // The job list (see the file comment for its per-job cost).
  const std::size_t n_jobs = quick ? 16 : 48;
  std::vector<api::JobSpec> jobs;
  jobs.reserve(n_jobs);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    api::JobSpec spec;
    spec.name = "tiny" + std::to_string(j);
    spec.method = Method::kAbbeMo;
    spec.config = args.config();
    spec.clip = api::ClipSource::generated(DatasetKind::kIccad13, args.seed);
    spec.config_overrides = {"mask_dim=64", "source_dim=7", "socs_kernels=4",
                             "outer_steps=64"};
    spec.evaluate_solution = false;
    jobs.push_back(std::move(spec));
  }

  bool gate_ok = true;
  BenchReport report("cluster", args);

  // -- inprocess baseline (width 1: same resources as one worker). -------
  std::vector<api::JobResult> reference;
  Rate inprocess;
  {
    api::Session::Options so;
    so.threads = 1;
    api::Session session(so);
    reference = session.run_batch(jobs);  // also warms the caches
    bool identical = true;
    inprocess = timed_passes(
        reference, [&] { return session.run_batch(jobs); }, &identical);
    if (!identical) {
      std::printf("GATE FAILED: repeated in-process passes differ\n");
      gate_ok = false;
    }
  }
  const double inprocess_jps = inprocess.jobs_per_sec;
  std::printf("inprocess  : %6.1f jobs/sec (%.2f s, %.0f ms/job)\n",
              inprocess_jps, inprocess.seconds, 1e3 / inprocess_jps);

  // -- cluster over 1 and 4 spawned workers. -----------------------------
  double cluster1_jps = 0.0;
  double cluster4_jps = 0.0;
  for (const std::size_t n_workers : {std::size_t{1}, std::size_t{4}}) {
    net::DispatcherOptions dopts;
    dopts.workers.assign(scale_cluster.endpoints().begin(),
                         scale_cluster.endpoints().begin() +
                             static_cast<std::ptrdiff_t>(n_workers));
    net::Dispatcher dispatcher(dopts);
    if (dispatcher.wait_for_workers(n_workers, 15.0) < n_workers) {
      std::printf("GATE FAILED: only %zu/%zu workers came up\n",
                  dispatcher.stats().workers_alive, n_workers);
      gate_ok = false;
      continue;
    }
    (void)dispatcher.run_batch({jobs[0]});  // warm each worker's caches
    if (n_workers > 1) {
      std::vector<api::JobSpec> warm(n_workers - 1, jobs[0]);
      (void)dispatcher.run_batch(warm);
    }
    bool identical = true;
    const Rate rate = timed_passes(
        reference, [&] { return dispatcher.run_batch(jobs); }, &identical);
    const double jps = rate.jobs_per_sec;
    const double seconds = rate.seconds;
    (n_workers == 1 ? cluster1_jps : cluster4_jps) = jps;
    std::printf("cluster_%zu  : %6.1f jobs/sec (%.2f s)\n", n_workers, jps,
                seconds);
    if (!identical) {
      std::printf("GATE FAILED: cluster_%zu results differ from the "
                  "in-process run\n",
                  n_workers);
      gate_ok = false;
    }
    report.add("cluster_" + std::to_string(n_workers),
               {{"jobs_per_sec", jps},
                {"seconds", seconds},
                {"retries",
                 static_cast<double>(dispatcher.stats().jobs_retried)}});
  }

  // -- tiled sweep: dispatcher + locality placement vs in-process. -------
  double tiled_cluster_tps = 0.0;
  double tiled_local_tps = 0.0;
  {
    api::JobSpec base;
    base.method = Method::kAbbeMo;
    base.config = args.config();
    base.config_overrides = {"mask_dim=64", "source_dim=5", "socs_kernels=4",
                             "outer_steps=2"};
    const Layout layout =
        generate_clip(dataset_spec(DatasetKind::kIccad13), args.seed);

    shard::ShardOptions sopts;
    sopts.rows = 2;
    sopts.cols = 2;
    sopts.stitch_images = false;  // compare raw tile results bitwise

    api::Session::Options so;
    so.threads = 1;
    api::Session session(so);

    shard::TileScheduler local(session);
    auto t0 = Clock::now();
    const shard::ShardResult local_sweep = local.run(layout, base, sopts);
    const double local_seconds = seconds_since(t0);

    net::DispatcherOptions dopts;
    dopts.workers = scale_cluster.endpoints();
    net::Dispatcher dispatcher(dopts);
    const std::size_t up = dispatcher.wait_for_workers(4, 15.0);
    shard::TileScheduler remote(session, &dispatcher);
    t0 = Clock::now();
    const shard::ShardResult remote_sweep = remote.run(layout, base, sopts);
    const double remote_seconds = seconds_since(t0);

    const std::size_t tiles = local_sweep.tiles.size();
    tiled_local_tps =
        static_cast<double>(tiles) / std::max(local_seconds, 1e-9);
    tiled_cluster_tps =
        static_cast<double>(tiles) / std::max(remote_seconds, 1e-9);
    std::printf("tiled      : local %5.2f tiles/sec | cluster(%zu up) "
                "%5.2f tiles/sec\n",
                tiled_local_tps, up, tiled_cluster_tps);
    if (!local_sweep.ok() || !remote_sweep.ok() ||
        !results_identical(remote_sweep.tiles, local_sweep.tiles)) {
      std::printf("GATE FAILED: tiled sweep through the dispatcher differs "
                  "from the in-process sweep (local ok=%d, remote ok=%d)\n",
                  local_sweep.ok() ? 1 : 0, remote_sweep.ok() ? 1 : 0);
      gate_ok = false;
    }
    report.add("tiled", {{"local_tiles_per_sec", tiled_local_tps},
                         {"cluster_tiles_per_sec", tiled_cluster_tps},
                         {"tiles", static_cast<double>(tiles)}});
  }

  // -- fault injection: kill one of two workers mid-batch. ---------------
  {
    net::DispatcherOptions dopts;
    dopts.workers = fault_cluster.endpoints();
    dopts.heartbeat_timeout_seconds = 1.5;  // faster dead-worker detection
    net::Dispatcher dispatcher(dopts);
    if (dispatcher.wait_for_workers(2, 15.0) < 2) {
      std::printf("GATE FAILED: fault-injection cluster did not come up\n");
      gate_ok = false;
    } else {
      // An anchor job pinned to the victim worker and long enough to
      // still be mid-optimization at the kill: its retry is
      // deterministic, however fast the tiny batch drains.
      api::JobSpec anchor_spec = jobs.front();
      anchor_spec.name = "anchor";
      anchor_spec.config_overrides.push_back("outer_steps=1000");
      std::atomic<bool> anchor_running{false};
      api::SubmitOptions anchor_submit;
      anchor_submit.placement_hint = 2;  // 2 % 2 workers == the victim
      anchor_submit.on_event = [&anchor_running](const api::JobEvent& e) {
        if (e.kind == api::JobEvent::Kind::kStep) {
          anchor_running.store(true, std::memory_order_relaxed);
        }
      };

      const auto t0 = Clock::now();
      const api::JobHandle anchor =
          dispatcher.submit(anchor_spec, anchor_submit);
      std::vector<api::JobHandle> handles = dispatcher.submit_batch(jobs);
      // Wait for the anchor to be mid-run on the victim (and the batch to
      // get going on the survivor), then SIGKILL worker 0.
      while ((!anchor_running.load(std::memory_order_relaxed) ||
              dispatcher.stats().jobs_completed < n_jobs / 4) &&
             seconds_since(t0) < 30.0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      fault_cluster.kill_worker(0);
      std::vector<api::JobResult> results;
      results.reserve(n_jobs);
      for (const api::JobHandle& handle : handles) {
        results.push_back(handle.wait());
      }
      const api::JobResult anchor_result = anchor.wait();
      const double seconds = seconds_since(t0);
      std::size_t retried = anchor_result.retries > 0 ? 1 : 0;
      for (const api::JobResult& r : results) {
        if (r.retries > 0) ++retried;
      }
      std::printf("fault      : all %zu jobs finished in %.2f s after the "
                  "kill; %zu carried retries\n",
                  results.size() + 1, seconds, retried);
      if (!results_identical(results, reference)) {
        std::printf("GATE FAILED: results after the mid-batch worker kill "
                    "differ from the in-process run\n");
        gate_ok = false;
      }
      // The retried anchor's half-run first attempt must leave no trace:
      // its rerun matches a clean in-process run bitwise.
      api::Session::Options so;
      so.threads = 1;
      api::Session solo(so);
      const api::JobResult anchor_ref = solo.run(anchor_spec);
      if (!anchor_result.ok() || !anchor_ref.ok() ||
          !grids_identical(anchor_result.run.theta_m,
                           anchor_ref.run.theta_m) ||
          !grids_identical(anchor_result.run.theta_j,
                           anchor_ref.run.theta_j)) {
        std::printf("GATE FAILED: the retried anchor job differs from a "
                    "clean in-process run\n");
        gate_ok = false;
      }
      if (retried == 0) {
        std::printf("GATE FAILED: no JobResult recorded a retry after the "
                    "worker kill\n");
        gate_ok = false;
      }
      report.add("fault", {{"seconds", seconds},
                           {"jobs_retried", static_cast<double>(retried)}});
    }
  }

  report.add("inprocess", {{"jobs_per_sec", inprocess_jps},
                           {"seconds", inprocess.seconds}});
  report.add("scaling",
             {{"cluster4_over_cluster1",
               cluster4_jps / std::max(cluster1_jps, 1e-9)},
              {"cluster1_over_inprocess",
               cluster1_jps / std::max(inprocess_jps, 1e-9)}});
  report.write();

  // Scaling gate: only meaningful when 4 worker processes can actually
  // run in parallel on this machine.
  const double scale = cluster4_jps / std::max(cluster1_jps, 1e-9);
  bool scaling_ok = true;
  if (std::thread::hardware_concurrency() >= 4) {
    if (scale < 2.5) {
      std::printf("GATE FAILED: cluster_4 %.2fx cluster_1 (< 2.5x)\n", scale);
      scaling_ok = false;
    } else {
      std::printf("scaling gate: cluster_4 %.2fx cluster_1 (>= 2.5x)\n",
                  scale);
    }
  } else {
    std::printf("scaling gate skipped: %u hardware threads (< 4); "
                "advisory 1->4 scaling %.2fx\n",
                std::thread::hardware_concurrency(), scale);
  }
  if (!gate_ok) return 1;
  return scaling_ok ? 0 : 2;
}

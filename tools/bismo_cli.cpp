// bismo_cli: run SMO jobs through the bismo::api facade.
//
//   bismo_cli --layout clip.txt --method bismo-nmn --steps 40 --out out/
//   bismo_cli --generate iccad13 --seed 7 --method am-aa
//   bismo_cli --generate ispd19 --batch 4 --json results.json
//   bismo_cli --generate iccad13 --config mask_dim=128 --config lr_mask=0.2
//
// One Session owns the worker pool and the warm per-shape workspaces, so a
// --batch run amortizes setup across all clips.  Results are printed as a
// summary and, with --json, written as one machine-readable document.
// Ctrl-C cancels cooperatively: in-flight jobs stop at the next step and
// partial results are still reported.  --watch switches to the async
// submission path and streams per-job status lines (enqueued / started /
// step / done with queue latency) as the scheduler works; there the first
// Ctrl-C cancels each outstanding job individually via its JobHandle.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "fft/kernels/kernel.hpp"
#include "io/grid_io.hpp"
#include "io/image_io.hpp"
#include "math/grid_ops.hpp"
#include "net/net.hpp"
#include "shard/shard.hpp"

namespace {

using namespace bismo;

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --layout PATH      layout text file (TILE/RECT format)\n"
      "  --generate KIND    synthesize clips: iccad13 | iccad-l | ispd19\n"
      "  --seed N           generator seed (default 1)\n"
      "  --batch N          run N generated clips (seeds seed..seed+N-1)\n"
      "  --method NAME      nilt | dac23 | abbe-mo | am-ah | am-aa |\n"
      "                     bismo-fd | bismo-cg | bismo-nmn (default)\n"
      "  --config K=V       override a config key (repeatable; see\n"
      "                     --list-config for the key reference)\n"
      "  --nm N             shorthand for --config mask_dim=N (default 64)\n"
      "  --nj N             shorthand for --config source_dim=N (default 9)\n"
      "  --steps N          shorthand for --config outer_steps=N (default 40)\n"
      "  --tiles RxC        tiled execution: shard the layout into an RxC\n"
      "                     grid of overlapping clips, optimize them\n"
      "                     concurrently, stitch the results (--nm then\n"
      "                     sets the FULL-layout grid dimension)\n"
      "  --halo-nm H        tile overlap margin in nm (default 128)\n"
      "  --lanes N          tiles optimized at once (default: auto)\n"
      "  --threads N        worker threads (default: hardware)\n"
      "  --queue-capacity N queued jobs past which the admission policy\n"
      "                     applies (default: effectively unbounded)\n"
      "  --queue-policy P   admission policy at capacity: block | reject |\n"
      "                     shed (shed-oldest); applies to --watch\n"
      "                     submissions (default block)\n"
      "  --coalesce N       batch up to N queued same-shape jobs into one\n"
      "                     scheduler dispatch under load (1 disables;\n"
      "                     default 8)\n"
      "  --fft-backend B    FFT kernel backend: scalar | avx2 | auto\n"
      "                     (default: auto; also via BISMO_FFT_BACKEND)\n"
      "  --workers LIST     distributed serving: execute jobs on running\n"
      "                     bismo_worker processes (\"host:port,host:port\")\n"
      "                     via the fault-tolerant cluster dispatcher\n"
      "  --spawn-workers N  fork N local worker processes on ephemeral\n"
      "                     ports and dispatch to them (no running workers\n"
      "                     needed; they die with the CLI)\n"
      "  --json PATH        write results JSON ('-' for stdout)\n"
      "  --csv PATH         write a per-job summary CSV (status, queue/run\n"
      "                     latency, metrics)\n"
      "  --progress         print per-step progress to stderr\n"
      "  --watch            submit asynchronously and stream per-job status\n"
      "                     lines plus a periodic queue/lane status line;\n"
      "                     Ctrl-C cancels the outstanding jobs\n"
      "                     individually\n"
      "  --out DIR          image/checkpoint directory for single runs\n"
      "                     (default bismo_cli_out)\n"
      "  --list-config      print the config-key reference and exit\n",
      argv0);
  std::exit(2);
}

void print_config_keys() {
  std::printf("config keys (--config key=value):\n");
  for (const api::ConfigKeyInfo& info : api::config_keys()) {
    std::printf("  %-18s %s\n", info.key.c_str(), info.doc.c_str());
  }
}

// Session::request_cancel walks the scheduler registry under a mutex, so
// it is no longer async-signal-safe; the handler only flips an atomic flag
// (and restores the default disposition so a second Ctrl-C exits hard).  A
// watcher thread / the --watch loop polls the flag and performs the cancel
// from a normal thread.
std::atomic<bool> g_interrupted{false};

void handle_interrupt(int) {
  g_interrupted.store(true, std::memory_order_relaxed);
  std::signal(SIGINT, SIG_DFL);
}

/// Polls g_interrupted and forwards the first interrupt to the session as
/// a cooperative cancel (drains in-flight jobs; the session re-arms).
class InterruptWatcher {
 public:
  explicit InterruptWatcher(api::Session& session)
      : thread_([this, &session] {
          while (!stop_.load(std::memory_order_relaxed)) {
            if (g_interrupted.load(std::memory_order_relaxed)) {
              session.request_cancel();
              return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
        }) {}

  ~InterruptWatcher() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

void write_images(api::Session& session, const api::JobSpec& spec,
                  const api::JobResult& result, const std::string& out_dir) {
  // Re-materialize the problem (cheap: warm workspaces) to render images.
  const auto problem = session.make_problem(spec);
  std::filesystem::create_directories(out_dir);
  write_pgm(out_dir + "/target.pgm", problem->target());
  write_pgm(out_dir + "/source.pgm",
            problem->source_image(result.run.theta_j));
  write_pgm(out_dir + "/mask.pgm", problem->mask_image(result.run.theta_m));
  const RealGrid resist = problem->resist_image(
      result.run.theta_m, result.run.theta_j, DoseCorner::kNominal);
  write_pgm(out_dir + "/resist.pgm", resist);
  write_compare_ppm(out_dir + "/resist_vs_target.ppm", resist,
                    problem->target());
  save_grid(out_dir + "/theta_m.bsmg", result.run.theta_m);
  save_grid(out_dir + "/theta_j.bsmg", result.run.theta_j);
  std::printf("outputs in %s/\n", out_dir.c_str());
}

/// The one event observer for --watch / --progress, shared by the local
/// Session and the cluster Dispatcher.  --watch prints whole status lines
/// per lifecycle event (step lines at coarse intervals with --progress);
/// --progress alone prints steps: whole lines at coarse intervals for
/// tiles, which progress concurrently and would interleave a single
/// \r-rewritten line, else one live \r line.  Empty when neither is set.
api::JobEventObserver make_observer(bool watch, bool progress, bool tiled) {
  const auto print_step = [](const api::JobEvent& e) {
    const int quarter = e.planned_steps > 4 ? e.planned_steps / 4 : 1;
    if (e.step.step % quarter == 0 || e.step.step + 1 == e.planned_steps) {
      std::fprintf(stderr, "[%zu/%zu %s] step %d/%d loss %.3f\n",
                   e.batch_index + 1, e.batch_count, e.job_name.c_str(),
                   e.step.step + 1, e.planned_steps, e.step.loss);
    }
  };
  if (watch) {
    return [progress, print_step](const api::JobEvent& e) {
      switch (e.kind) {
        case api::JobEvent::Kind::kEnqueued:
          std::fprintf(stderr, "[%zu/%zu %s] queued\n", e.batch_index + 1,
                       e.batch_count, e.job_name.c_str());
          break;
        case api::JobEvent::Kind::kStarted:
          std::fprintf(stderr, "[%zu/%zu %s] started (queued %.0f ms)\n",
                       e.batch_index + 1, e.batch_count, e.job_name.c_str(),
                       e.queued_ms);
          break;
        case api::JobEvent::Kind::kStep:
          if (progress) print_step(e);
          break;
        case api::JobEvent::Kind::kFinished:
          std::fprintf(stderr, "[%zu/%zu %s] %s (run %.0f ms)\n",
                       e.batch_index + 1, e.batch_count, e.job_name.c_str(),
                       api::to_string(e.status), e.run_ms);
          break;
      }
    };
  }
  if (!progress) return nullptr;
  if (tiled) {
    return [print_step](const api::JobEvent& e) {
      if (e.kind == api::JobEvent::Kind::kStep) print_step(e);
    };
  }
  return [](const api::JobEvent& e) {
    if (e.kind != api::JobEvent::Kind::kStep) return;
    std::fprintf(stderr, "\r[%zu/%zu %s] step %d/%d loss %.3f   ",
                 e.batch_index + 1, e.batch_count, e.job_name.c_str(),
                 e.step.step + 1, e.planned_steps, e.step.loss);
  };
}

/// Async serving path: submit everything up front, stream status via the
/// submitter's event observer, cancel outstanding jobs individually on ^C,
/// and print a live status line (print_status) roughly once per second.
/// Works identically for an in-process Session and a cluster Dispatcher.
std::vector<api::JobResult> watch_run(api::JobSubmitter& submitter,
                                      const std::vector<api::JobSpec>& specs,
                                      const api::SubmitOptions& submit_base,
                                      const std::function<void()>& print_status) {
  std::vector<api::JobHandle> handles =
      submitter.submit_batch(specs, submit_base);
  std::vector<api::JobResult> results(specs.size());
  bool cancelled = false;
  int polls = 0;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    while (!handles[i].wait_for(0.1)) {
      if (!cancelled && g_interrupted.load(std::memory_order_relaxed)) {
        std::fprintf(stderr, "^C: cancelling outstanding jobs\n");
        // Per-job cancellation: queued jobs finalize immediately, running
        // jobs stop at their next step; terminal handles are no-ops.
        for (const api::JobHandle& handle : handles) handle.cancel();
        cancelled = true;
      }
      if (++polls % 10 == 0 && print_status) print_status();
    }
    results[i] = handles[i].wait();
  }
  return results;
}

void print_result(const api::JobResult& r) {
  if (!r.ok()) {
    std::printf("%-28s ERROR: %s\n", r.job_name.c_str(), r.error.c_str());
    return;
  }
  std::printf("%-28s L2 %8.0f -> %8.0f | PVB %8.0f -> %8.0f |"
              " EPE %zu -> %zu | %.1f s%s\n",
              r.job_name.c_str(), r.before.l2_nm2, r.after.l2_nm2,
              r.before.pvb_nm2, r.after.pvb_nm2, r.before.epe_violations,
              r.after.epe_violations, r.total_seconds,
              r.cancelled() ? " [cancelled]" : "");
}

/// Tiled execution: shard the layout, sweep the tiles concurrently,
/// stitch, report full-layout metrics, dump images/JSON.
int run_tiled(api::Session& session, api::JobSubmitter* submitter,
              const api::JobSpec& base, const std::string& layout_path,
              const std::string& generate_kind, std::uint64_t seed,
              std::size_t rows, std::size_t cols, double halo_nm,
              std::size_t lanes, const std::string& json_path,
              const std::string& out_dir) {
  Layout layout;
  if (!layout_path.empty()) {
    layout = read_layout(layout_path);
  } else {
    DatasetSpec dspec = dataset_spec(dataset_from_string(generate_kind));
    layout = generate_clip(dspec, seed);
  }

  shard::ShardOptions opts;
  opts.rows = rows;
  opts.cols = cols;
  opts.halo_nm = halo_nm;
  opts.concurrency = lanes;

  shard::TileScheduler scheduler(session, submitter);
  const shard::TilePlan plan = scheduler.plan_for(layout, base, opts);
  std::printf("%zu tiles (%zux%zu, %zu px windows, %zu px halo), "
              "width %zu%s\n",
              plan.tile_count(), rows, cols, plan.tile_dim(), plan.halo_px(),
              submitter != nullptr ? submitter->parallel_width()
                                   : session.parallel_width(),
              submitter != nullptr ? " (cluster)" : "");

  const shard::ShardResult result = scheduler.run(layout, base, opts);

  int failures = 0;
  for (const api::JobResult& tile : result.tiles) {
    if (!tile.ok()) {
      std::printf("%-28s ERROR: %s\n", tile.job_name.c_str(),
                  tile.error.c_str());
      ++failures;
    } else {
      std::printf("%-28s loss %8.3f | %3zu steps | %.1f s%s\n",
                  tile.job_name.c_str(), tile.run.final_loss(),
                  tile.run.trace.size(), tile.total_seconds,
                  tile.cancelled() ? " [cancelled]" : "");
    }
  }
  if (result.ok() && !result.cancelled) {
    std::printf("stitched %zux%zu: L2 %8.0f | PVB %8.0f | EPE %zu/%zu | "
                "%.1f s total (%.1f s tiles)\n",
                result.plan.full_dim(), result.plan.full_dim(),
                result.stitched.l2_nm2, result.stitched.pvb_nm2,
                result.stitched.epe_violations, result.stitched.epe_samples,
                result.total_seconds, result.run_seconds);

    std::filesystem::create_directories(out_dir);
    write_pgm(out_dir + "/target.pgm", result.target);
    write_pgm(out_dir + "/mask.pgm", result.mask);
    const RealGrid print = binarize(result.resist);
    write_pgm(out_dir + "/resist.pgm", result.resist);
    write_compare_ppm(out_dir + "/resist_vs_target.ppm", print,
                      result.target);
    std::printf("stitched images in %s/\n", out_dir.c_str());
  } else if (!result.ok()) {
    std::printf("sweep failed: %s\n", result.error.c_str());
  }

  if (!json_path.empty()) {
    if (json_path == "-") {
      api::write_json(std::cout, result.tiles);
    } else {
      std::ofstream out(json_path);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
        return 1;
      }
      api::write_json(out, result.tiles);
      std::printf("per-tile results JSON: %s\n", json_path.c_str());
    }
  }
  return failures == 0 && result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string layout_path;
  std::string generate_kind;
  std::string method_name = "bismo-nmn";
  std::string out_dir = "bismo_cli_out";
  std::string json_path;
  std::string csv_path;
  std::vector<std::string> overrides;
  std::uint64_t seed = 1;
  std::size_t batch = 0;
  std::size_t threads = 0;
  std::size_t queue_capacity = 0;
  std::size_t coalesce_limit = 8;
  api::QueuePolicy queue_policy = api::QueuePolicy::kBlock;
  bool progress = false;
  bool watch = false;
  std::size_t tile_rows = 0;
  std::size_t tile_cols = 0;
  double halo_nm = 128.0;
  std::size_t lanes = 0;
  std::string workers_spec;
  std::size_t spawn_workers = 0;

  // Shorthand flags keep their historical defaults by prepending their
  // override before any explicit --config (so --config wins on conflict).
  std::vector<std::string> shorthand{"mask_dim=64", "source_dim=9",
                                     "outer_steps=40"};

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // Numeric flags go through the checked api parsers: a malformed,
    // negative or out-of-range value is a usage error, never a silent
    // default.
    auto count = [&]() { return api::parse_size(flag, next()); };
    try {
      if (flag == "--help" || flag == "-h") usage(argv[0]);
      else if (flag == "--list-config") { print_config_keys(); return 0; }
      else if (flag == "--layout") layout_path = next();
      else if (flag == "--generate") generate_kind = next();
      else if (flag == "--seed") seed = count();
      else if (flag == "--batch") batch = count();
      else if (flag == "--method") method_name = next();
      else if (flag == "--config") overrides.push_back(next());
      else if (flag == "--nm") shorthand[0] = "mask_dim=" + next();
      else if (flag == "--nj") shorthand[1] = "source_dim=" + next();
      else if (flag == "--steps") shorthand[2] = "outer_steps=" + next();
      else if (flag == "--tiles") {
        const std::string grid = next();
        const std::size_t x = grid.find_first_of("xX");
        if (x == std::string::npos) usage(argv[0]);
        tile_rows = api::parse_size(flag, grid.substr(0, x));
        tile_cols = api::parse_size(flag, grid.substr(x + 1));
        if (tile_rows == 0 || tile_cols == 0) usage(argv[0]);
      }
      else if (flag == "--halo-nm") halo_nm = api::parse_double(flag, next());
      else if (flag == "--lanes") lanes = count();
      else if (flag == "--threads") threads = count();
      else if (flag == "--queue-capacity") queue_capacity = count();
      else if (flag == "--coalesce") coalesce_limit = count();
      else if (flag == "--queue-policy") {
        const std::string policy = next();
        if (policy == "block") queue_policy = api::QueuePolicy::kBlock;
        else if (policy == "reject") queue_policy = api::QueuePolicy::kReject;
        else if (policy == "shed" || policy == "shed-oldest") {
          queue_policy = api::QueuePolicy::kShedOldest;
        } else {
          std::fprintf(stderr, "unknown queue policy \"%s\"\n",
                       policy.c_str());
          usage(argv[0]);
        }
      }
      else if (flag == "--fft-backend") {
        const std::string backend = next();
        if (!bismo::fft::set_backend(backend)) {
          std::fprintf(stderr,
                       "unknown or unavailable FFT backend \"%s\" (available:",
                       backend.c_str());
          for (const std::string& name : bismo::fft::available_backends()) {
            std::fprintf(stderr, " %s", name.c_str());
          }
          std::fprintf(stderr, ")\n");
          return 2;
        }
      }
      else if (flag == "--workers") workers_spec = next();
      else if (flag == "--spawn-workers") spawn_workers = count();
      else if (flag == "--json") json_path = next();
      else if (flag == "--csv") csv_path = next();
      else if (flag == "--progress") progress = true;
      else if (flag == "--watch") watch = true;
      else if (flag == "--out") out_dir = next();
      else usage(argv[0]);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      usage(argv[0]);
    }
  }
  if (layout_path.empty() == generate_kind.empty()) {
    std::fprintf(stderr, "exactly one of --layout / --generate required\n");
    usage(argv[0]);
  }
  if (batch > 0 && generate_kind.empty()) {
    std::fprintf(stderr, "--batch requires --generate\n");
    usage(argv[0]);
  }
  if (tile_rows > 0 && batch > 0) {
    std::fprintf(stderr, "--tiles cannot be combined with --batch\n");
    usage(argv[0]);
  }
  if (watch && tile_rows > 0) {
    std::fprintf(stderr, "--watch cannot be combined with --tiles\n");
    usage(argv[0]);
  }
  if (spawn_workers > 0 && !workers_spec.empty()) {
    std::fprintf(stderr,
                 "--spawn-workers and --workers are mutually exclusive\n");
    usage(argv[0]);
  }

  try {
    // Fork worker processes FIRST: spawning must precede any thread the
    // Session or Dispatcher creates in this process.
    net::SpawnedCluster cluster;
    std::vector<net::Endpoint> worker_endpoints;
    if (spawn_workers > 0) {
      cluster = net::spawn_local_workers(spawn_workers);
      worker_endpoints = cluster.endpoints();
    } else if (!workers_spec.empty()) {
      worker_endpoints = net::parse_endpoints(workers_spec);
    }
    const Method method = method_from_string(method_name);

    // Shared base configuration for every job.
    api::JobSpec base;
    base.method = method;
    base.config.initial_source.shape = SourceShape::kConventional;
    base.config.activation.source_init = 1.5;
    base.config_overrides = shorthand;
    base.config_overrides.insert(base.config_overrides.end(),
                                 overrides.begin(), overrides.end());

    api::Session::Options options;
    options.threads = threads;
    options.queue_capacity = queue_capacity;
    options.coalesce_limit = std::max<std::size_t>(1, coalesce_limit);
    options.on_event = make_observer(watch, progress, tile_rows > 0);
    api::Session session(options);
    std::signal(SIGINT, handle_interrupt);

    // Cluster mode: jobs execute on worker processes via the dispatcher;
    // the local session still resolves configs and renders images.
    std::unique_ptr<net::Dispatcher> dispatcher;
    if (!worker_endpoints.empty()) {
      net::DispatcherOptions dopts;
      dopts.workers = worker_endpoints;
      dopts.on_event = options.on_event;
      dispatcher = std::make_unique<net::Dispatcher>(dopts);
      const std::size_t alive =
          dispatcher->wait_for_workers(worker_endpoints.size(), 10.0);
      std::printf("cluster: %zu/%zu workers alive, parallel width %zu\n",
                  alive, worker_endpoints.size(),
                  dispatcher->parallel_width());
      if (alive == 0) {
        std::fprintf(stderr, "error: no workers reachable\n");
        return 1;
      }
    }

    if (tile_rows > 0) {
      InterruptWatcher watcher(session);
      return run_tiled(session, dispatcher.get(), base, layout_path,
                       generate_kind, seed, tile_rows, tile_cols, halo_nm,
                       lanes, json_path, out_dir);
    }

    std::vector<api::JobSpec> specs;
    if (!layout_path.empty()) {
      api::JobSpec spec = base;
      spec.clip = api::ClipSource::from_file(layout_path);
      specs.push_back(std::move(spec));
    } else {
      const DatasetKind kind = dataset_from_string(generate_kind);
      const std::size_t count = batch > 0 ? batch : 1;
      for (std::size_t b = 0; b < count; ++b) {
        api::JobSpec spec = base;
        spec.clip = api::ClipSource::generated(kind, seed + b);
        specs.push_back(std::move(spec));
      }
    }

    std::printf("%zu job(s), method %s, %zu worker threads\n", specs.size(),
                to_string(method).c_str(), session.parallel_width());

    std::vector<api::JobResult> results;
    if (watch) {
      api::SubmitOptions submit_base;
      submit_base.queue_policy = queue_policy;
      // Generated batch clips share one structural shape, so one
      // fingerprint opts the whole stream into small-job coalescing.
      if (options.coalesce_limit > 1 && specs.size() > 1) {
        submit_base.coalesce_key = specs.front().coalesce_fingerprint();
      }
      if (dispatcher != nullptr) {
        net::Dispatcher& d = *dispatcher;
        results = watch_run(d, specs, submit_base, [&d] {
          const net::Dispatcher::Stats s = d.stats();
          std::fprintf(stderr,
                       "[status] workers %zu/%zu | completed %zu/%zu | "
                       "retries %zu\n",
                       s.workers_alive, s.workers_total, s.jobs_completed,
                       s.jobs_submitted, s.jobs_retried);
        });
      } else {
        results = watch_run(session, specs, submit_base, [&session] {
          const api::Session::Stats s = session.stats();
          std::fprintf(stderr,
                       "[status] queued %zu | running %zu | steals %zu | "
                       "coalesced %zu | shed %zu | rejected %zu\n",
                       s.queue_depth, s.jobs_executing, s.steals,
                       s.coalesced_jobs, s.jobs_shed, s.jobs_rejected);
        });
      }
    } else if (dispatcher != nullptr) {
      results = dispatcher->run_batch(specs);
    } else {
      InterruptWatcher watcher(session);
      results = session.run_batch(specs);
    }
    // Terminate the live \r progress line (cancelled runs never reach
    // their planned final step).
    if (progress && !watch) std::fputc('\n', stderr);

    int failures = 0;
    for (const api::JobResult& r : results) {
      print_result(r);
      if (!r.ok()) ++failures;
    }
    if (dispatcher != nullptr) {
      const net::Dispatcher::Stats ds = dispatcher->stats();
      std::printf("cluster: %zu jobs completed on %zu/%zu workers, "
                  "%zu retries\n",
                  ds.jobs_completed, ds.workers_alive, ds.workers_total,
                  ds.jobs_retried);
    } else if (results.size() > 1) {
      const api::Session::Stats stats = session.stats();
      std::printf("session: %zu jobs, %zu served from warm workspaces\n",
                  stats.jobs_run, stats.workspace_reuses);
    }

    if (!json_path.empty()) {
      if (json_path == "-") {
        api::write_json(std::cout, results);
      } else {
        std::ofstream out(json_path);
        if (!out) {
          std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
          return 1;
        }
        api::write_json(out, results);
        std::printf("results JSON: %s\n", json_path.c_str());
      }
    }
    if (!csv_path.empty()) {
      std::ofstream out(csv_path);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", csv_path.c_str());
        return 1;
      }
      api::write_summary_csv(out, results);
      std::printf("summary CSV: %s\n", csv_path.c_str());
    }

    // Single successful runs keep the historical image/checkpoint dump.
    if (results.size() == 1 && results[0].ok() && !results[0].cancelled()) {
      write_images(session, specs[0], results[0], out_dir);
    }
    return failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

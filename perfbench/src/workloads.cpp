#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "api/api.hpp"
#include "net/net.hpp"
#include "probes.hpp"
#include "shard/shard.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using namespace bismo;

// ---- Inputs -----------------------------------------------------------------

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Clip seed of item `i` of input stream `stream` under workload `seed`.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t i) {
  return splitmix(splitmix(seed * 31 + stream) + i) % 1000000007ull;
}

constexpr std::array<DatasetKind, 3> kSuites = {
    DatasetKind::kIccad13, DatasetKind::kIccadL, DatasetKind::kIspd19};

api::JobSpec make_spec(DatasetKind dataset, std::uint64_t clip_seed,
                       Method method, std::vector<std::string> overrides) {
  api::JobSpec spec;
  spec.clip = api::ClipSource::generated(dataset, clip_seed);
  spec.method = method;
  spec.config_overrides = std::move(overrides);
  return spec;
}

std::string fmt(const char* format, double a, double b = 0.0,
                double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

// ---- Requests and their checks -----------------------------------------------

struct Request {
  std::size_t index = 0;     ///< position in the workload's input stream
  std::uint64_t span = 0;    ///< request span id (traced runs)
  double submit_s = 0.0;     ///< just before submit()
  double done_s = 0.0;       ///< finished event delivered
  api::JobResult result;

  double latency_s() const { return done_s - submit_s; }
};

/// Drop a result's parameter grids once they have been checked.
void strip_grids(api::JobResult& r) {
  r.run.theta_m = RealGrid();
  r.run.theta_j = RealGrid();
}

bool same_bits(const RealGrid& a, const RealGrid& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_metrics(const SolutionMetrics& a, const SolutionMetrics& b) {
  return same_bits(a.l2_nm2, b.l2_nm2) && same_bits(a.pvb_nm2, b.pvb_nm2) &&
         a.epe_violations == b.epe_violations &&
         a.epe_samples == b.epe_samples && same_bits(a.loss, b.loss);
}

bool same_result(const api::JobResult& a, const api::JobResult& b) {
  return same_bits(a.run.theta_m, b.run.theta_m) &&
         same_bits(a.run.theta_j, b.run.theta_j) &&
         same_metrics(a.before, b.before) && same_metrics(a.after, b.after);
}

/// Why a finished request counts as failed ("" when it does not).
std::string request_failure(const api::JobResult& r) {
  if (!r.error.empty()) return "error: " + r.error;
  if (r.shed) return "shed";
  if (r.cancelled()) return "cancelled";
  if (r.retries > 0) return "retried " + std::to_string(r.retries) + "x";
  if (r.run.trace.empty()) return "empty trace";
  const double first = r.run.trace.front().loss;
  const double last = r.run.trace.back().loss;
  if (!std::isfinite(last) || !(last < first)) {
    return fmt("loss did not decrease (%.6g -> %.6g)", first, last);
  }
  return "";
}

/// Trace time (s) at which the loss first drops below `fraction` of its
/// initial value; negative when it never does.
double time_to_quality(const RunResult& run, double fraction) {
  if (run.trace.empty()) return -1.0;
  const double goal = fraction * run.trace.front().loss;
  for (const StepRecord& step : run.trace) {
    if (step.loss < goal) return step.seconds;
  }
  return -1.0;
}

void count_failure(Outcome& out, const std::string& what) {
  ++out.failed;
  if (out.details.size() < 40) out.details.push_back("FAILED " + what);
}

/// Peak resident set of this process plus `workers` reaped children, each
/// counted at the largest child's peak (MB).
double peak_rss_mb(std::size_t workers, Outcome& out) {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  const double self_mb = static_cast<double>(self.ru_maxrss) / 1024.0;
  const double child_mb = static_cast<double>(children.ru_maxrss) / 1024.0;
  if (workers > 0) {
    out.details.push_back(fmt("peak_rss_mb: self %.1f MB + %.0f workers x ",
                              self_mb, static_cast<double>(workers)) +
                          fmt("%.1f MB (largest reaped child)", child_mb));
  }
  return self_mb + static_cast<double>(workers) * child_mb;
}

/// Record the request span of a finished request (and its counters).
void record_request(Tracer& tracer, const Request& r) {
  if (!tracer.enabled()) return;
  Span span;
  span.id = r.span;
  span.job = r.index + 1;
  span.name = "request";
  span.start_s = r.submit_s;
  span.end_s = r.done_s;
  const api::JobResult& j = r.result;
  span.attrs = {{"queued_ms", j.queued_ms},
                {"run_ms", j.run_ms},
                {"setup_ms", j.setup_seconds * 1e3},
                {"total_ms", j.total_seconds * 1e3},
                {"evals", static_cast<double>(j.run.gradient_evaluations)},
                {"retries", static_cast<double>(j.retries)},
                {"workspace_reused", j.workspaces_reused ? 1.0 : 0.0}};
  tracer.record(std::move(span));
}

/// Write a traced run's spans beside its result file.
void write_spans(const Tracer& tracer, const Options& opt, Outcome& out) {
  const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".spans.json";
  if (tracer.write_json(path)) out.details.push_back("spans: " + path);
}

// ---- Closed loop over a JobSubmitter ------------------------------------------

struct LoopResult {
  std::vector<Request> requests;  ///< in submission order
  double wall_s = 0.0;
};

/// Keep `window` requests outstanding: submit stream items from `first`
/// on until `seconds` have passed and at least `min_requests` were
/// submitted, then drain.  The finished event of each job stamps its
/// completion time.
LoopResult closed_loop(api::JobSubmitter& submitter,
                       const std::function<api::JobSpec(std::size_t)>& spec_at,
                       std::size_t first, std::size_t window, double seconds,
                       std::size_t min_requests, Tracer& tracer) {
  struct Done {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::pair<std::size_t, double>> queue;
  };
  const auto done = std::make_shared<Done>();
  LoopResult out;
  std::vector<api::JobHandle> handles;
  std::size_t in_flight = 0;
  const double t0 = now_s();
  const auto more = [&] {
    return now_s() - t0 < seconds || out.requests.size() < min_requests;
  };
  for (;;) {
    while (in_flight < window && more()) {
      const std::size_t slot = out.requests.size();
      Request r;
      r.index = first + slot;
      r.span = tracer.enabled() ? tracer.next_id() : 0;
      api::JobSpec spec = spec_at(r.index);
      api::SubmitOptions options;
      options.coalesce_key = spec.coalesce_fingerprint();
      options.lanes_hint = window;  // as Session::run_batch does
      options.on_event = [done, slot](const api::JobEvent& event) {
        if (event.kind != api::JobEvent::Kind::kFinished) return;
        const double t = now_s();
        {
          std::lock_guard<std::mutex> lock(done->mutex);
          done->queue.emplace_back(slot, t);
        }
        done->cv.notify_one();
      };
      r.submit_s = now_s();
      {
        Scope span(tracer, "api.submit", r.index + 1, r.span);
        handles.push_back(submitter.submit(std::move(spec), std::move(options)));
      }
      out.requests.push_back(std::move(r));
      ++in_flight;
    }
    if (in_flight == 0) break;
    std::pair<std::size_t, double> finished;
    {
      std::unique_lock<std::mutex> lock(done->mutex);
      done->cv.wait(lock, [&done] { return !done->queue.empty(); });
      finished = done->queue.front();
      done->queue.pop_front();
    }
    Request& r = out.requests[finished.first];
    r.done_s = finished.second;
    r.result = handles[finished.first].wait();
    // Release the job's state: holding every handle would make the run's
    // memory grow with its throughput.
    handles[finished.first] = api::JobHandle();
    record_request(tracer, r);
    if (r.index != 0) strip_grids(r.result);  // request 0 is re-checked
    --in_flight;
  }
  out.wall_s = now_s() - t0;
  return out;
}

// ---- Metric assembly ------------------------------------------------------------

/// Final-solution quality of a panel of jobs, relative to where each job
/// started: a ratio of sums, so clip size and density cancel out.  PVB is
/// reported with L2 (their sum is the printed error area): the initial PVB
/// is small and varies so much between clips that its own ratio scatters
/// by 12-16 % between seeds.
struct Quality {
  double l2[2] = {0.0, 0.0};   ///< {initial, final} sums
  double pvb[2] = {0.0, 0.0};
  double epe[2] = {0.0, 0.0};
  std::size_t jobs = 0;

  void add(const SolutionMetrics& initial, const SolutionMetrics& final) {
    l2[0] += initial.l2_nm2;
    l2[1] += final.l2_nm2;
    pvb[0] += initial.pvb_nm2;
    pvb[1] += final.pvb_nm2;
    epe[0] += static_cast<double>(initial.epe_violations);
    epe[1] += static_cast<double>(final.epe_violations);
    ++jobs;
  }
};

struct Summary {
  std::vector<double> setup_s;
  std::vector<Request> requests;  ///< measured requests
  std::size_t block = 1;          ///< completions per throughput block
  double tail_pct = 90.0;
  std::vector<double> ttq_s;
  Quality quality;
  double rss_mb = 0.0;
};

/// Completed requests per second: the median over blocks of `block`
/// consecutive completions, each block timed from the completion that
/// ended the one before it (the first from the loop's first submit).  A
/// burst of load from outside the benchmark then slows a few blocks but
/// moves the median little, where a whole-run average would take it all.
double block_throughput(const std::vector<Request>& requests,
                        std::size_t block, Outcome& out) {
  std::vector<double> done;
  double start = requests.front().submit_s;
  for (const Request& r : requests) {
    done.push_back(r.done_s);
    start = std::min(start, r.submit_s);
  }
  std::sort(done.begin(), done.end());
  std::vector<double> rates;
  for (std::size_t end = block; end <= done.size(); end += block) {
    const double begin = end == block ? start : done[end - block - 1];
    rates.push_back(static_cast<double>(block) / (done[end - 1] - begin));
  }
  out.details.push_back(fmt("jobs_per_s is the median of %.0f blocks of %.0f "
                            "completions",
                            static_cast<double>(rates.size()),
                            static_cast<double>(block)));
  if (rates.empty()) {
    return static_cast<double>(done.size()) / (done.back() - start);
  }
  return median(rates);
}

std::vector<Metric> end_to_end(const Summary& s, Outcome& out) {
  std::vector<double> latency;
  for (const Request& r : s.requests) latency.push_back(r.latency_s());
  const double jobs_per_s = block_throughput(s.requests, s.block, out);
  const std::size_t beyond = static_cast<std::size_t>(std::floor(
      static_cast<double>(latency.size()) * (100.0 - s.tail_pct) / 100.0));
  out.details.push_back(
      fmt("job_s.tail is p%.0f of %.0f requests (%.0f beyond it)", s.tail_pct,
          static_cast<double>(latency.size()), static_cast<double>(beyond)));
  out.details.push_back("setup_s is the median of " +
                        std::to_string(s.setup_s.size()) + " set-ups");
  const Quality& q = s.quality;
  const double n = static_cast<double>(std::max<std::size_t>(q.jobs, 1));
  out.details.push_back(
      fmt("quality panel of %.0f: mean L2 %.1f -> %.1f nm2, ", n, q.l2[0] / n,
          q.l2[1] / n) +
      fmt("PVB %.1f -> %.1f nm2, EPE violations %.2f", q.pvb[0] / n,
          q.pvb[1] / n, q.epe[0] / n) +
      fmt(" -> %.2f", q.epe[1] / n));
  // Printed, not a metric: on serve_mix the peak moves by 40 % between
  // seeds with which workspace sets and allocator arenas happen to be live.
  out.details.push_back(fmt("peak_rss_mb %.1f MB", s.rss_mb));
  return {
      {"setup_s", median(s.setup_s), "s"},
      {"jobs_per_s", jobs_per_s, "1/s"},
      {"job_s.p50", median(latency), "s"},
      {"job_s.tail", percentile(latency, s.tail_pct), "s"},
      {"ttq_s.p50", median(s.ttq_s), "s"},
      {"l2_ratio", q.l2[1] / q.l2[0], "ratio"},
      {"l2_pvb_ratio", (q.l2[1] + q.pvb[1]) / (q.l2[0] + q.pvb[0]), "ratio"},
      {"epe_ratio", q.epe[1] / q.epe[0], "ratio"},
  };
}

/// Check every request, collect time-to-quality for the requests in the
/// ttq class below index `timed`, and fold the first `panel` requests into
/// the quality panel.
void check_requests(const std::vector<Request>& requests,
                    const std::function<bool(std::size_t)>& in_ttq_class,
                    double ttq_fraction, std::size_t panel, std::size_t timed,
                    Summary& summary, Outcome& out) {
  for (const Request& r : requests) {
    ++out.attempted;
    const std::string why = request_failure(r.result);
    if (!why.empty()) {
      count_failure(out, "request " + std::to_string(r.index) + " (" +
                             r.result.job_name + "): " + why);
      continue;
    }
    if (in_ttq_class(r.index)) {
      const double ttq = time_to_quality(r.result.run, ttq_fraction);
      if (ttq < 0.0) {
        count_failure(out, "request " + std::to_string(r.index) +
                               ": loss never reached " +
                               fmt("%.3g", ttq_fraction) + " of its start");
      } else if (r.index < timed) {
        summary.ttq_s.push_back(ttq);
      }
    }
    if (r.index < panel) summary.quality.add(r.result.before, r.result.after);
  }
}

/// Per-kind latency lines, so a reader sees what the mix is made of.
void describe_kinds(const std::vector<Request>& requests,
                    const std::function<std::string(std::size_t)>& kind_of,
                    Outcome& out) {
  std::vector<std::string> kinds;
  for (const Request& r : requests) {
    const std::string k = kind_of(r.index);
    if (std::find(kinds.begin(), kinds.end(), k) == kinds.end()) {
      kinds.push_back(k);
    }
  }
  for (const std::string& k : kinds) {
    std::vector<double> lat;
    std::vector<double> run;
    double worst_final = 0.0;  // largest final/initial loss ratio
    double worst_best = 0.0;   // largest lowest/initial loss ratio
    for (const Request& r : requests) {
      if (kind_of(r.index) != k) continue;
      lat.push_back(r.latency_s());
      run.push_back(r.result.run_ms / 1e3);
      const auto& trace = r.result.run.trace;
      if (!trace.empty()) {
        double lowest = trace.front().loss;
        for (const StepRecord& step : trace) lowest = std::min(lowest, step.loss);
        worst_final =
            std::max(worst_final, trace.back().loss / trace.front().loss);
        worst_best = std::max(worst_best, lowest / trace.front().loss);
      }
    }
    out.details.push_back(
        k + fmt(": n=%.0f latency p50 %.4f s, run p50 %.4f s",
                static_cast<double>(lat.size()), median(lat), median(run)) +
        fmt(", worst loss ratio final %.4f lowest %.4f", worst_final,
            worst_best));
  }
}

double trace_overhead_pct(const std::vector<Request>& untraced,
                          const std::vector<Request>& traced) {
  std::vector<double> a;
  std::vector<double> b;
  for (const Request& r : untraced) a.push_back(r.latency_s());
  for (const Request& r : traced) b.push_back(r.latency_s());
  const double base = median(a);
  return base > 0.0 ? (median(b) / base - 1.0) * 100.0 : 0.0;
}

// ---- Session workloads: bismo_128 and serve_mix -----------------------------------

struct SessionWorkload {
  api::Session::Options session;
  std::size_t window = 1;   ///< requests kept outstanding
  std::size_t panel = 6;    ///< quality panel: the first `panel` requests
  std::size_t cycle = 1;    ///< length of the input stream's kind cycle
  std::size_t block = 1;    ///< completions per throughput block
  double tail_pct = 90.0;
  double ttq_fraction = 0.5;
  std::function<api::JobSpec(std::size_t)> spec_at;
  std::function<std::string(std::size_t)> kind_of;
  std::function<bool(std::size_t)> in_ttq_class;
  std::vector<api::JobSpec> warmup;
  ProbePlan probe;
};

api::Session::Stats stats_delta(const api::Session::Stats& a,
                                const api::Session::Stats& b) {
  api::Session::Stats d;
  d.jobs_run = b.jobs_run - a.jobs_run;
  d.workspace_reuses = b.workspace_reuses - a.workspace_reuses;
  d.workspace_evictions = b.workspace_evictions - a.workspace_evictions;
  d.coalesced_jobs = b.coalesced_jobs - a.coalesced_jobs;
  d.steals = b.steals - a.steals;
  return d;
}

void record_loop_span(Tracer& tracer, const LoopResult& loop,
                      const api::Session::Stats& delta, double width) {
  if (!tracer.enabled() || loop.requests.empty()) return;
  double busy_ms = 0.0;
  for (const Request& r : loop.requests) busy_ms += r.result.run_ms;
  Span span;
  span.name = "api.loop";
  span.start_s = loop.requests.front().submit_s;
  span.end_s = span.start_s + loop.wall_s;
  span.attrs = {
      {"jobs_run", static_cast<double>(delta.jobs_run)},
      {"workspace_reuses", static_cast<double>(delta.workspace_reuses)},
      {"workspace_evictions", static_cast<double>(delta.workspace_evictions)},
      {"coalesced_jobs", static_cast<double>(delta.coalesced_jobs)},
      {"steals", static_cast<double>(delta.steals)},
      {"busy_ms", busy_ms},
      {"parallel_width", width}};
  tracer.record(std::move(span));
}

Outcome run_session_workload(const Options& opt, const SessionWorkload& w) {
  Outcome out;
  Summary summary;
  summary.tail_pct = w.tail_pct;
  summary.block = w.block;

  std::unique_ptr<api::Session> session;
  const int setups = opt.quick ? 1 : 9;
  for (int i = 0; i < setups; ++i) {
    session.reset();
    const double t0 = now_s();
    session = std::make_unique<api::Session>(w.session);
    api::Session::BatchOptions batch;
    batch.concurrency = w.window;
    const auto warm = session->run_batch(w.warmup, batch);
    summary.setup_s.push_back(now_s() - t0);
    for (const api::JobResult& r : warm) {
      if (!r.ok()) throw std::runtime_error("warm-up job failed: " + r.error);
    }
  }

  Tracer off(false);
  Tracer on(true);
  const std::size_t panel = opt.quick ? 2 : w.panel;
  std::vector<Request> measured;
  if (!opt.trace) {
    measured =
        closed_loop(*session, w.spec_at, 0, w.window, opt.seconds, panel, off)
            .requests;
  } else {
    // Untraced half, then traced half: the gap between the two is the
    // tracing overhead; the per-layer numbers come from the traced half.
    LoopResult plain =
        closed_loop(*session, w.spec_at, 0, w.window, opt.seconds / 2, 1, off);
    const api::Session::Stats before = session->stats();
    LoopResult traced =
        closed_loop(*session, w.spec_at, plain.requests.size(), w.window,
                    opt.seconds / 2, 1, on);
    record_loop_span(on, traced, stats_delta(before, session->stats()),
                     static_cast<double>(session->parallel_width()));
    const double overhead = trace_overhead_pct(plain.requests, traced.requests);
    api::Session::Options wide;
    wide.threads = 4;
    api::Session probe_session(wide);
    run_probes(probe_session, w.probe, on);
    measured = std::move(plain.requests);
    measured.insert(measured.end(),
                    std::make_move_iterator(traced.requests.begin()),
                    std::make_move_iterator(traced.requests.end()));
    out.metrics = derive_per_layer(SpanIndex(on.spans()), overhead);
    write_spans(on, opt, out);
  }

  // Timings cover whole kind cycles only: a trailing part-cycle would tilt
  // the medians toward whichever kinds it happens to hold.
  const std::size_t timed = std::max(measured.size() / w.cycle * w.cycle,
                                     std::min(w.cycle, measured.size()));
  describe_kinds(measured, w.kind_of, out);
  check_requests(measured, w.in_ttq_class, w.ttq_fraction, panel, timed,
                 summary, out);

  // Output check: the first request's spec, resubmitted, must reproduce
  // its first run bit for bit (θ grids and solution metrics).
  api::JobResult first = measured.front().result;
  if (opt.corrupt) {
    first.run.theta_m[0] = std::nextafter(first.run.theta_m[0], 1e300);
  }
  const api::JobResult again = session->run(w.spec_at(0));
  ++out.attempted;
  if (!same_result(first, again)) {
    count_failure(out, "resubmitted request 0 differs from its first run");
  }
  session.reset();

  if (!opt.trace) {
    measured.resize(timed);
    summary.requests = std::move(measured);
    summary.rss_mb = peak_rss_mb(0, out);
    out.metrics = end_to_end(summary, out);
  }
  return out;
}

SessionWorkload bismo_128(const Options& opt) {
  SessionWorkload w;
  w.session.threads = 4;
  w.window = 1;
  w.panel = 12;
  w.cycle = 6;
  w.block = 2;
  w.tail_pct = 75.0;
  w.ttq_fraction = 0.8;
  const std::uint64_t seed = opt.seed;
  // Six kinds in a fixed cycle: {ICCAD13, ICCAD-L, ISPD19} x {NMN, CG}.
  // 20 outer steps cost both methods about the same.  CG is damped:
  // undamped, some CG runs end above their initial loss.
  const auto spec = [seed](std::size_t i, std::uint64_t stream,
                           const char* steps) {
    const std::size_t kind = i % 6;
    return make_spec(kSuites[kind / 2], derive(seed, stream, i),
                     kind % 2 == 0 ? Method::kBismoNmn : Method::kBismoCg,
                     {"mask_dim=128", "source_dim=11", "unroll_steps=2",
                      "hyper_terms=3", "cg_damping=1", steps});
  };
  w.spec_at = [spec](std::size_t i) { return spec(i, 1, "outer_steps=20"); };
  w.kind_of = [](std::size_t i) {
    return to_string(kSuites[(i % 6) / 2]) +
           (i % 2 == 0 ? "/BiSMO-NMN" : "/BiSMO-CG");
  };
  w.in_ttq_class = [](std::size_t) { return true; };
  for (std::size_t i = 0; i < 2; ++i) {
    w.warmup.push_back(spec(i, 2, "outer_steps=2"));
  }
  w.probe.spec = w.spec_at(0);
  w.probe.fft_dims = {128};
  return w;
}

/// serve_mix request kinds, in a fixed 16-slot cycle.
enum class MixKind { kNmn64, kAmah64, kTiny32, kMo96 };

constexpr std::array<MixKind, 16> kMixCycle = {
    MixKind::kTiny32, MixKind::kNmn64, MixKind::kTiny32, MixKind::kAmah64,
    MixKind::kTiny32, MixKind::kNmn64, MixKind::kTiny32, MixKind::kMo96,
    MixKind::kTiny32, MixKind::kNmn64, MixKind::kTiny32, MixKind::kAmah64,
    MixKind::kTiny32, MixKind::kNmn64, MixKind::kTiny32, MixKind::kNmn64};

api::JobSpec mix_spec(MixKind kind, std::uint64_t clip_seed,
                      DatasetKind dataset) {
  switch (kind) {
    case MixKind::kNmn64:
      return make_spec(dataset, clip_seed, Method::kBismoNmn,
                       {"mask_dim=64", "source_dim=9", "unroll_steps=2",
                        "hyper_terms=3", "outer_steps=8"});
    case MixKind::kAmah64:
      return make_spec(dataset, clip_seed, Method::kAmAbbeHopkins,
                       {"mask_dim=64", "source_dim=9", "am_cycles=2",
                        "am_so_steps=3", "am_mo_steps=5"});
    case MixKind::kTiny32:
      return make_spec(dataset, clip_seed, Method::kAbbeMo,
                       {"mask_dim=32", "source_dim=5", "outer_steps=2"});
    case MixKind::kMo96:
      return make_spec(dataset, clip_seed, Method::kAbbeMo,
                       {"mask_dim=96", "source_dim=9", "outer_steps=3"});
  }
  throw std::logic_error("unknown mix kind");
}

const char* mix_name(MixKind kind) {
  switch (kind) {
    case MixKind::kNmn64: return "BiSMO-NMN 64";
    case MixKind::kAmah64: return "AM-SMO(A-H) 64";
    case MixKind::kTiny32: return "Abbe-MO 32";
    case MixKind::kMo96: return "Abbe-MO 96";
  }
  return "?";
}

SessionWorkload serve_mix(const Options& opt) {
  SessionWorkload w;
  w.session.threads = 4;
  w.session.scheduler_lanes = 4;
  w.window = 8;
  w.panel = 32;
  w.cycle = kMixCycle.size();
  w.block = kMixCycle.size();
  w.tail_pct = 99.0;
  w.ttq_fraction = 0.998;
  const std::uint64_t seed = opt.seed;
  w.spec_at = [seed](std::size_t i) {
    return mix_spec(kMixCycle[i % kMixCycle.size()], derive(seed, 3, i),
                    kSuites[i % 3]);
  };
  w.kind_of = [](std::size_t i) {
    return std::string(mix_name(kMixCycle[i % kMixCycle.size()]));
  };
  w.in_ttq_class = [](std::size_t i) {
    return kMixCycle[i % kMixCycle.size()] == MixKind::kNmn64;
  };
  for (const MixKind kind : {MixKind::kNmn64, MixKind::kAmah64,
                             MixKind::kTiny32, MixKind::kMo96}) {
    w.warmup.push_back(mix_spec(kind, derive(seed, 4, w.warmup.size()),
                                DatasetKind::kIccad13));
  }
  w.probe.spec = w.spec_at(1);  // the first 64^2 BiSMO-NMN request
  w.probe.fft_dims = {96, 64};
  return w;
}

// ---- tiled_cluster -------------------------------------------------------------------

/// JobSubmitter decorator that stamps each tile's submit and finish times
/// (the scheduler labels tiles with SubmitOptions::batch_index).
class TimingSubmitter final : public api::JobSubmitter {
 public:
  TimingSubmitter(api::JobSubmitter& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  /// Start a sweep of `tiles` jobs whose requests are numbered from `first`.
  void begin_sweep(std::size_t tiles, std::size_t first) {
    times_ = std::make_shared<Times>();
    times_->submit_s.assign(tiles, 0.0);
    times_->done_s.assign(tiles, 0.0);
    times_->span.assign(tiles, 0);
    first_ = first;
  }

  Request request(std::size_t tile) const {
    std::lock_guard<std::mutex> lock(times_->mutex);
    Request r;
    r.index = first_ + tile;
    r.span = times_->span[tile];
    r.submit_s = times_->submit_s[tile];
    r.done_s = times_->done_s[tile];
    return r;
  }

  api::JobHandle submit(api::JobSpec spec,
                        api::SubmitOptions options) override {
    const std::size_t tile = options.batch_index;
    const std::uint64_t span = tracer_.enabled() ? tracer_.next_id() : 0;
    const auto times = times_;
    api::JobEventObserver inner = std::move(options.on_event);
    options.on_event = [times, tile, inner](const api::JobEvent& event) {
      if (event.kind == api::JobEvent::Kind::kFinished) {
        std::lock_guard<std::mutex> lock(times->mutex);
        times->done_s[tile] = now_s();
      }
      if (inner) inner(event);
    };
    {
      std::lock_guard<std::mutex> lock(times->mutex);
      times->span[tile] = span;
      times->submit_s[tile] = now_s();
    }
    Scope scope(tracer_, "api.submit", first_ + tile + 1, span);
    return inner_.submit(std::move(spec), std::move(options));
  }

  std::size_t parallel_width() const noexcept override {
    return inner_.parallel_width();
  }

 private:
  struct Times {
    std::mutex mutex;
    std::vector<double> submit_s;
    std::vector<double> done_s;
    std::vector<std::uint64_t> span;
  };
  api::JobSubmitter& inner_;
  Tracer& tracer_;
  std::shared_ptr<Times> times_;
  std::size_t first_ = 0;
};

/// Two forked 2-thread workers, the dispatcher over them, and the local
/// 4-thread session that resolves configs and renders/stitches tiles.
/// Members tear down in reverse: session and dispatcher threads are joined
/// before the workers are killed and reaped.
struct Cluster {
  net::SpawnedCluster workers;
  std::unique_ptr<net::Dispatcher> dispatcher;
  std::unique_ptr<api::Session> session;
};

constexpr std::size_t kWorkers = 2;

/// Sum of the workers' last heartbeat gauges.
api::Session::Stats worker_stats(const net::Dispatcher& dispatcher) {
  api::Session::Stats sum;
  for (const auto& info : dispatcher.workers()) {
    if (!info.last_stats) continue;
    sum.jobs_run += info.last_stats->jobs_run;
    sum.workspace_reuses += info.last_stats->workspace_reuses;
    sum.workspace_evictions += info.last_stats->workspace_evictions;
    sum.coalesced_jobs += info.last_stats->coalesced_jobs;
    sum.steals += info.last_stats->steals;
  }
  return sum;
}

struct Sweep {
  shard::ShardResult result;
  std::vector<Request> requests;  ///< one per tile, plan order
};

Outcome run_tiled_cluster(const Options& opt) {
  Outcome out;
  Summary summary;
  summary.tail_pct = 90.0;
  // Tiles run two steps: time-to-quality is the time of the first step
  // that improves on the initial loss.
  const double ttq_fraction = 1.0;

  api::JobSpec base;
  base.method = Method::kBismoNmn;
  base.config_overrides = {"mask_dim=512", "source_dim=9", "unroll_steps=2",
                           "hyper_terms=3", "outer_steps=2"};
  const Layout layout =
      generate_clip(dataset_spec(DatasetKind::kIccadL), derive(opt.seed, 5, 0));
  shard::ShardOptions sharding;
  sharding.rows = 4;
  sharding.cols = 4;

  // Set-up: fork workers (no thread may exist yet -- every earlier cluster
  // is fully torn down first), connect, warm every worker lane and the
  // local render path.
  std::unique_ptr<Cluster> cluster;
  const int setups = opt.quick ? 1 : 5;
  for (int i = 0; i < setups; ++i) {
    cluster.reset();
    const double t0 = now_s();
    cluster = std::make_unique<Cluster>();
    net::WorkerOptions worker_options;
    worker_options.threads = 2;
    worker_options.name = "perfbench";
    cluster->workers = net::spawn_local_workers(kWorkers, worker_options);
    net::DispatcherOptions dispatch;
    dispatch.workers = cluster->workers.endpoints();
    cluster->dispatcher = std::make_unique<net::Dispatcher>(dispatch);
    if (cluster->dispatcher->wait_for_workers(kWorkers, 30.0) < kWorkers) {
      throw std::runtime_error("tiled_cluster: workers did not come up");
    }
    api::Session::Options local;
    local.threads = 2;
    cluster->session = std::make_unique<api::Session>(local);
    const shard::TileScheduler scheduler(*cluster->session);
    const shard::TilePlan plan = scheduler.plan_for(layout, base, sharding);
    std::vector<api::JobSpec> warm = scheduler.tile_specs(layout, base, plan);
    warm.resize(2 * kWorkers);
    std::vector<api::JobHandle> handles;
    for (std::size_t t = 0; t < warm.size(); ++t) {
      warm[t].config_overrides.push_back("outer_steps=1");
      api::SubmitOptions submit;
      submit.placement_hint = t % kWorkers + 1;
      handles.push_back(cluster->dispatcher->submit(warm[t], submit));
    }
    {
      const auto render = cluster->session->make_problem(warm.front());
      (void)render->aerial_image(render->initial_theta_m(),
                                 render->initial_theta_j());
    }
    for (const api::JobHandle& h : handles) {
      if (!h.wait().ok()) {
        throw std::runtime_error("tiled_cluster: warm-up tile failed: " +
                                 h.wait().error);
      }
    }
    summary.setup_s.push_back(now_s() - t0);
  }

  Tracer off(false);
  Tracer on(true);
  // Sweeps are checked as they land: each one's stitched metrics against
  // the first sweep's.  Only the first sweep keeps its tile grids (for the
  // in-process check below); later results drop theirs, so peak memory is
  // the system's, not the benchmark's bookkeeping.
  std::vector<Sweep> sweeps;
  const auto sweep_loop = [&](double seconds, Tracer& tr) {
    std::size_t first = 0;
    for (const Sweep& s : sweeps) first += s.requests.size();
    const std::size_t begin = sweeps.size();
    TimingSubmitter timing(*cluster->dispatcher, tr);
    shard::TileScheduler remote(*cluster->session, &timing);
    const double t0 = now_s();
    while (sweeps.size() == begin || (!opt.quick && now_s() - t0 < seconds)) {
      Sweep sweep;
      shard::TilePlan plan;
      std::vector<api::JobSpec> specs;
      {
        Scope span(tr, "shard.plan", 0);
        plan = remote.plan_for(layout, base, sharding);
        specs = remote.tile_specs(layout, base, plan);
      }
      timing.begin_sweep(plan.tile_count(), first);
      const double s0 = now_s();
      sweep.result = remote.run(layout, base, sharding);
      double busy_ms = 0.0;
      for (std::size_t t = 0; t < sweep.result.tiles.size(); ++t) {
        Request r = timing.request(t);
        r.result = sweep.result.tiles[t];
        busy_ms += r.result.run_ms;
        record_request(tr, r);
        if (tr.enabled() && sweeps.size() == begin) {
          probe_codec(specs[t], r.result, r.index + 1, tr);
        }
        strip_grids(r.result);
        sweep.requests.push_back(std::move(r));
      }
      first += sweep.requests.size();
      if (tr.enabled()) {
        Span span;
        span.name = "shard.sweep";
        span.start_s = s0;
        span.end_s = s0 + sweep.result.total_seconds;
        span.attrs = {{"busy_ms", busy_ms},
                      {"parallel_width",
                       static_cast<double>(timing.parallel_width())}};
        tr.record(span);
        span.name = "shard.stitch";
        span.start_s = s0 + sweep.result.run_seconds;
        span.attrs.clear();
        tr.record(std::move(span));
      }
      const std::size_t k = sweeps.size();
      if (!sweep.result.ok() || sweep.result.cancelled) {
        count_failure(out, "sweep " + std::to_string(k) + ": " +
                               sweep.result.error);
      }
      if (k > 0 && !same_metrics(sweep.result.stitched,
                                 sweeps.front().result.stitched)) {
        count_failure(out, "sweep " + std::to_string(k) +
                               ": stitched metrics differ from sweep 0");
      }
      sweep.result.mask = sweep.result.aerial = RealGrid();
      sweep.result.resist = sweep.result.target = RealGrid();
      if (k > 0) {
        for (api::JobResult& tile : sweep.result.tiles) strip_grids(tile);
      }
      sweeps.push_back(std::move(sweep));
    }
    const double wall_s = now_s() - t0;
    LoopResult loop;
    loop.wall_s = wall_s;
    for (std::size_t k = begin; k < sweeps.size(); ++k) {
      loop.requests.insert(loop.requests.end(), sweeps[k].requests.begin(),
                           sweeps[k].requests.end());
    }
    return loop;
  };

  if (!opt.trace) {
    sweep_loop(opt.seconds, off);
  } else {
    const LoopResult plain = sweep_loop(opt.seconds / 2, off);
    const api::Session::Stats before = worker_stats(*cluster->dispatcher);
    const LoopResult traced = sweep_loop(opt.seconds / 2, on);
    record_loop_span(on, traced,
                     stats_delta(before, worker_stats(*cluster->dispatcher)),
                     static_cast<double>(
                         cluster->dispatcher->parallel_width()));
    const double overhead = trace_overhead_pct(plain.requests, traced.requests);
    const shard::TileScheduler local(*cluster->session);
    const shard::TilePlan plan = local.plan_for(layout, base, sharding);
    ProbePlan probe;
    probe.spec = local.tile_specs(layout, base, plan)[5];  // an inner tile
    probe.fft_dims = {plan.tile_dim()};
    probe.net_round_trip = false;
    probe.shard_probe = false;
    api::Session::Options wide;
    wide.threads = 4;
    api::Session probe_session(wide);
    run_probes(probe_session, probe, on);
    out.metrics = derive_per_layer(SpanIndex(on.spans()), overhead);
    write_spans(on, opt, out);
  }
  cluster.reset();
  if (!opt.trace) summary.rss_mb = peak_rss_mb(kWorkers, out);

  // The check result: one in-process sweep on a fresh 4-thread session,
  // outside timing, set-up and the memory peak above.  The first sweep
  // must match it tile for tile and in its stitched metrics.
  // The same session scores the whole layout's initial solution, the base
  // of the quality ratios.
  shard::ShardResult reference;
  SolutionMetrics initial;
  {
    api::Session::Options local;
    local.threads = 4;
    api::Session session(local);
    reference = shard::TileScheduler(session).run(layout, base, sharding);
    api::JobSpec whole = base;
    whole.clip = api::ClipSource::from_layout(layout);
    const auto problem = session.make_problem(whole);
    initial = problem->evaluate_solution(problem->initial_theta_m(),
                                         problem->initial_theta_j());
  }
  const shard::ShardResult& first = sweeps.front().result;
  if (opt.corrupt) {
    RealGrid& grid = sweeps.front().result.tiles.front().run.theta_m;
    grid[0] = std::nextafter(grid[0], 1e300);
  }
  if (!reference.ok() || !same_metrics(first.stitched, reference.stitched)) {
    count_failure(out, "sweep 0: stitched metrics differ from the "
                       "in-process sweep " + reference.error);
  }
  for (std::size_t t = 0; t < first.tiles.size(); ++t) {
    const RunResult& a = first.tiles[t].run;
    const RunResult& b = reference.tiles.at(t).run;
    if (!same_bits(a.theta_m, b.theta_m) || !same_bits(a.theta_j, b.theta_j)) {
      count_failure(out, "tile " + std::to_string(t) +
                             " of sweep 0 differs from the in-process sweep");
    }
  }

  std::vector<Request> all;
  for (const Sweep& s : sweeps) {
    all.insert(all.end(), s.requests.begin(), s.requests.end());
  }
  check_requests(all, [](std::size_t) { return true; }, ttq_fraction, 0,
                 all.size(), summary, out);
  out.details.push_back(fmt("%.0f sweeps of %.0f tiles",
                            static_cast<double>(sweeps.size()),
                            static_cast<double>(first.tiles.size())));

  if (!opt.trace) {
    summary.requests = std::move(all);
    summary.block = first.tiles.size();  // one sweep
    summary.quality.add(initial, first.stitched);
    out.metrics = end_to_end(summary, out);
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"bismo_128", "serve_mix",
                                                 "tiled_cluster"};
  return names;
}

Outcome run_workload(const Options& options) {
  if (options.workload == "bismo_128") {
    return run_session_workload(options, bismo_128(options));
  }
  if (options.workload == "serve_mix") {
    return run_session_workload(options, serve_mix(options));
  }
  if (options.workload == "tiled_cluster") return run_tiled_cluster(options);
  throw std::invalid_argument("unknown workload " + options.workload);
}

}  // namespace perfbench

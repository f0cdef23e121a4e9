#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "fft/fft.hpp"
#include "grad/hvp.hpp"
#include "grad/loss.hpp"
#include "litho/activation.hpp"
#include "math/grid_ops.hpp"
#include "net/net.hpp"
#include "shard/shard.hpp"
#include "sim/imaging_model.hpp"

namespace perfbench {
namespace {

using namespace bismo;

constexpr int kReps = 5;

/// Fill `g` with a reproducible random pattern.
RealGrid random_grid(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  RealGrid g(rows, cols);
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = dist(rng);
  return g;
}

void probe_fft(std::size_t dim, std::uint64_t job, Tracer& tracer) {
  const Fft2dPlan plan(dim, dim);
  std::vector<std::complex<double>> scratch(plan.scratch_size());
  // Every timed call transforms its own copy, so values never blow up
  // across repeated unnormalized transforms.
  const std::size_t copies =
      std::max<std::size_t>(8, (16u << 20) / (dim * dim * 16));
  const ComplexGrid pristine = to_complex(random_grid(dim, dim, dim));
  std::vector<ComplexGrid> grids(copies, pristine);
  for (int rep = 0; rep < kReps; ++rep) {
    for (ComplexGrid& g : grids) {
      std::memcpy(g.data(), pristine.data(), g.size() * sizeof(g[0]));
    }
    Scope span(tracer, "fft.forward", job);
    for (ComplexGrid& g : grids) plan.forward(g, scratch.data());
    span.attr("calls", static_cast<double>(copies));
    span.attr("dim", static_cast<double>(dim));
  }
}

void probe_sim(const SmoProblem& p, std::uint64_t job, Tracer& tracer) {
  const SmoConfig& cfg = p.config();
  const RealGrid mask = activate_mask(p.initial_theta_m(), cfg.activation);
  const RealGrid source =
      activate_source(p.initial_theta_j(), p.geometry(), cfg.activation);
  ComplexGrid o = to_complex(mask);
  fft2(o);

  std::vector<std::uint32_t> comps;
  std::vector<double> weights;
  double total = 0.0;
  for (std::size_t k = 0; k < p.geometry().points().size(); ++k) {
    const SourcePoint& pt = p.geometry().points()[k];
    comps.push_back(static_cast<std::uint32_t>(k));
    weights.push_back(source(pt.row, pt.col));
    total += weights.back();
  }
  std::vector<sim::AdjointItem> items;
  for (std::size_t k = 0; k < comps.size(); ++k) {
    sim::AdjointItem item;
    item.component = comps[k];
    item.mask = weights[k] > cfg.source_cutoff;
    item.scale = item.mask ? 2.0 * weights[k] / total : 0.0;
    items.push_back(item);
  }

  // Mirror AbbeGradientEngine::evaluate: capture fields during the
  // forward pass unless the band-convolution adjoint needs none.
  const bool band_conv = sim::adjoint_uses_band_conv(p.imaging());
  for (int rep = 0; rep < kReps; ++rep) {
    sim::FieldCaptureScope capture(p.imaging().workspaces(),
                                   p.imaging().components(), !band_conv);
    RealGrid intensity;
    {
      Scope span(tracer, "sim.accumulate_intensity", job);
      intensity = sim::accumulate_intensity(p.imaging(), o, comps, weights);
      span.attr("points", static_cast<double>(comps.size()));
    }
    intensity = map(intensity, [total](double v) { return v / total; });
    const SmoLoss loss =
        evaluate_smo_loss(intensity, p.target(), cfg.resist, cfg.weights,
                          cfg.process_window, /*want_backprop=*/true);
    std::vector<double> wns;
    Scope span(tracer, "sim.adjoint_pass", job);
    (void)sim::adjoint_pass(p.imaging(), o, loss.dl_di, items, &wns);
    span.attr("band_conv", band_conv ? 1.0 : 0.0);
  }
}

void probe_grad(const SmoProblem& p, std::uint64_t job, Tracer& tracer) {
  const RealGrid tm = p.initial_theta_m();
  const RealGrid tj = p.initial_theta_j();
  const AbbeGradientEngine& engine = p.engine();
  const struct {
    const char* name;
    GradRequest request;
  } kinds[] = {{"grad.evaluate.full", GradRequest{true, true}},
               {"grad.evaluate.source", GradRequest{false, true}},
               {"grad.evaluate.mask", GradRequest{true, false}}};
  for (const auto& kind : kinds) {
    for (int rep = 0; rep < kReps; ++rep) {
      Scope span(tracer, kind.name, job);
      (void)engine.evaluate(tm, tj, kind.request);
    }
  }
  for (int rep = 0; rep < kReps; ++rep) {
    Scope span(tracer, "grad.loss_only", job);
    (void)engine.loss_only(tm, tj);
  }
  const HypergradientOps ops(engine, p.config().fd_eps_scale);
  const RealGrid v = random_grid(tj.rows(), tj.cols(), 11);
  for (int rep = 0; rep < kReps; ++rep) {
    Scope span(tracer, "grad.hvp_source", job);
    (void)ops.hvp_source(tm, tj, v);
  }
  for (int rep = 0; rep < kReps; ++rep) {
    Scope span(tracer, "grad.mixed_mask_source", job);
    (void)ops.mixed_mask_source(tm, tj, v);
  }
}

void probe_core(const SmoProblem& p, Method method, std::uint64_t job,
                Tracer& tracer) {
  std::vector<double> step_at;
  RunControl control;
  control.on_step = [&step_at](const StepRecord&) {
    step_at.push_back(now_s());
  };
  Scope span(tracer, "core.run_method", job);
  const RunResult run = run_method(p, method, control);
  std::vector<double> gaps;
  for (std::size_t i = 1; i < step_at.size(); ++i) {
    gaps.push_back((step_at[i] - step_at[i - 1]) * 1e3);
  }
  span.attr("evals", static_cast<double>(run.gradient_evaluations));
  span.attr("steps", static_cast<double>(run.trace.size()));
  span.attr("step_ms", median(gaps));
}

void probe_metrics(const SmoProblem& p, std::uint64_t job, Tracer& tracer) {
  const RealGrid tm = p.initial_theta_m();
  const RealGrid tj = p.initial_theta_j();
  for (int rep = 0; rep < 3; ++rep) {
    Scope span(tracer, "metrics.evaluate_solution", job);
    (void)p.evaluate_solution(tm, tj);
  }
}

void probe_parallel(const SmoProblem& wide, const api::JobSpec& spec,
                    std::uint64_t job, Tracer& tracer) {
  api::Session::Options one;
  one.threads = 1;
  api::Session narrow_session(one);
  const auto narrow = narrow_session.make_problem(spec);
  const RealGrid tm = wide.initial_theta_m();
  const RealGrid tj = wide.initial_theta_j();
  for (int rep = 0; rep < kReps; ++rep) {
    Scope span(tracer, "parallel.evaluate.w1", job);
    (void)narrow->engine().evaluate(tm, tj);
  }
  for (int rep = 0; rep < kReps; ++rep) {
    Scope span(tracer, "parallel.evaluate.wide", job);
    span.attr("width", static_cast<double>(wide.pool()->width()));
    (void)wide.engine().evaluate(tm, tj);
  }
}

void probe_shard(api::Session& session, const api::JobSpec& spec,
                 std::uint64_t job, Tracer& tracer) {
  const Layout layout =
      generate_clip(dataset_spec(spec.clip.dataset), spec.clip.seed);
  const shard::TileScheduler scheduler(session);
  shard::ShardOptions options;
  options.rows = 2;
  options.cols = 2;
  shard::TilePlan plan;
  std::vector<api::JobSpec> tiles;
  for (int rep = 0; rep < kReps; ++rep) {
    Scope span(tracer, "shard.plan", job);
    plan = scheduler.plan_for(layout, spec, options);
    tiles = scheduler.tile_specs(layout, spec, plan);
  }
  std::vector<RealGrid> grids;
  for (const api::JobSpec& tile : tiles) {
    grids.push_back(tile.clip.layout.rasterize(plan.tile_dim()));
  }
  for (int rep = 0; rep < kReps; ++rep) {
    Scope span(tracer, "shard.stitch", job);
    (void)shard::stitch(plan, grids);
  }
}

void probe_net(const api::JobSpec& spec, std::uint64_t job, Tracer& tracer) {
  net::WorkerOptions worker_options;
  worker_options.threads = 1;
  worker_options.name = "probe";
  net::Worker worker(worker_options);
  worker.start();
  net::DispatcherOptions options;
  options.workers = {net::Endpoint{"127.0.0.1", worker.port()}};
  net::Dispatcher dispatcher(options);
  dispatcher.wait_for_workers(1, 10.0);

  api::JobSpec short_spec = spec;
  short_spec.config_overrides.push_back("outer_steps=2");
  for (int rep = 0; rep < 3; ++rep) {
    Span span;
    span.name = "net.request";
    span.job = job;
    span.start_s = now_s();
    const api::JobResult result = dispatcher.submit(short_spec).wait();
    span.end_s = now_s();
    span.attrs = {{"total_ms", result.total_seconds * 1e3},
                  {"retries", static_cast<double>(result.retries)}};
    tracer.record(std::move(span));
    probe_codec(short_spec, result, job, tracer);
  }
}

/// Median of `values`, or `fallback` when there are none.
double median_or(const std::vector<double>& values, double fallback) {
  return values.empty() ? fallback : median(values);
}

}  // namespace

void probe_codec(const api::JobSpec& spec, const api::JobResult& result,
                 std::uint64_t job, Tracer& tracer) {
  net::SubmitMsg submit;
  submit.job_id = job;
  submit.spec = spec;
  net::ResultMsg reply;
  reply.job_id = job;
  reply.result = result;
  Scope span(tracer, "net.codec", job);
  net::WireWriter submit_bytes;
  net::encode_submit(submit_bytes, submit);
  net::WireReader submit_reader(submit_bytes.bytes());
  (void)net::decode_submit(submit_reader);
  submit_reader.expect_end();
  net::WireWriter result_bytes;
  net::encode_result_msg(result_bytes, reply);
  net::WireReader result_reader(result_bytes.bytes());
  (void)net::decode_result_msg(result_reader);
  result_reader.expect_end();
  span.attr("bytes", static_cast<double>(submit_bytes.bytes().size() +
                                         result_bytes.bytes().size()));
}

void run_probes(api::Session& session, const ProbePlan& plan,
                Tracer& tracer) {
  const std::uint64_t job = tracer.next_id();
  std::shared_ptr<SmoProblem> problem;
  for (int rep = 0; rep < kReps; ++rep) {
    problem.reset();  // return the lease so the next build reuses it
    Scope span(tracer, "core.make_problem", job);
    problem = session.make_problem(plan.spec);
  }
  for (const std::size_t dim : plan.fft_dims) probe_fft(dim, job, tracer);
  probe_sim(*problem, job, tracer);
  probe_grad(*problem, job, tracer);
  probe_metrics(*problem, job, tracer);
  probe_parallel(*problem, plan.spec, job, tracer);
  probe_core(*problem, plan.spec.method, job, tracer);
  problem.reset();
  if (plan.shard_probe) probe_shard(session, plan.spec, job, tracer);
  if (plan.net_round_trip) probe_net(plan.spec, job, tracer);
}

std::vector<Metric> derive_per_layer(const SpanIndex& spans,
                                     double trace_overhead_pct) {
  std::vector<Metric> out;
  const auto add = [&out](const char* name, double value, const char* unit) {
    out.push_back(Metric{name, value, unit});
  };
  const auto med = [&spans](const char* name) {
    return median(spans.durations_ms(name));
  };

  // fft: per-call time of the first probed shape.
  double fwd_us = 0.0;
  double gflops = 0.0;
  const auto ffts = spans.named("fft.forward");
  if (!ffts.empty()) {
    const double dim = ffts.front()->attr("dim");
    std::vector<double> per_call;
    for (const Span* s : ffts) {
      if (s->attr("dim") == dim) {
        per_call.push_back(s->ms() * 1e3 / s->attr("calls", 1.0));
      }
    }
    fwd_us = median(per_call);
    const double n2 = dim * dim;
    gflops = 5.0 * n2 * std::log2(n2) / (fwd_us * 1e3);
  }
  add("fft.fwd2d_us", fwd_us, "us");
  add("fft.gflops", gflops, "GFLOP/s");

  add("sim.intensity_ms", med("sim.accumulate_intensity"), "ms");
  add("sim.adjoint_ms", med("sim.adjoint_pass"), "ms");
  add("sim.band_conv",
      median_or(spans.attr_values("sim.adjoint_pass", "band_conv"), 0.0),
      "bool");

  add("grad.eval_full_ms", med("grad.evaluate.full"), "ms");
  add("grad.eval_source_ms", med("grad.evaluate.source"), "ms");
  add("grad.eval_mask_ms", med("grad.evaluate.mask"), "ms");
  add("grad.loss_only_ms", med("grad.loss_only"), "ms");
  add("grad.hvp_ms", med("grad.hvp_source"), "ms");
  add("grad.mixed_ms", med("grad.mixed_mask_source"), "ms");
  const double evals =
      median_or(spans.attr_values("core.run_method", "evals"), 0.0);
  add("grad.evals_per_job", evals, "count");

  add("core.setup_ms", med("core.make_problem"), "ms");
  const double run_ms = med("core.run_method");
  add("core.run_ms", run_ms, "ms");
  add("core.step_ms",
      median_or(spans.attr_values("core.run_method", "step_ms"), 0.0), "ms");
  add("core.ms_per_eval", evals > 0 ? run_ms / evals : 0.0, "ms");

  add("metrics.solution_ms", med("metrics.evaluate_solution"), "ms");

  const double wide = med("parallel.evaluate.wide");
  add("parallel.scaling_4v1",
      wide > 0 ? med("parallel.evaluate.w1") / wide : 0.0, "ratio");

  // api: the measured requests of the traced loop.
  std::vector<double> overhead;
  std::vector<double> retries;
  for (const Span* s : spans.named("request")) {
    overhead.push_back(s->ms() - s->attr("total_ms"));
    retries.push_back(s->attr("retries"));
  }
  add("api.submit_us", med("api.submit") * 1e3, "us");
  add("api.queued_ms.p50",
      median_or(spans.attr_values("request", "queued_ms"), 0.0), "ms");
  add("api.overhead_ms", median_or(overhead, 0.0), "ms");
  const auto loops = spans.named("api.loop");
  const auto loop_attr = [&loops](const char* key) {
    double sum = 0.0;
    for (const Span* s : loops) sum += s->attr(key);
    return sum;
  };
  const double jobs_run = loop_attr("jobs_run");
  add("api.workspace_reuse_ratio",
      jobs_run > 0 ? loop_attr("workspace_reuses") / jobs_run : 0.0, "ratio");
  add("api.jobs_run", jobs_run, "count");
  add("api.workspace_evictions", loop_attr("workspace_evictions"), "count");
  add("api.coalesced_jobs", loop_attr("coalesced_jobs"), "count");
  add("api.steals", loop_attr("steals"), "count");

  // shard: real sweeps when the workload has them, else the 2x2 probe;
  // parallelism is busy time over wall time of sweeps or of the loop.
  add("shard.plan_ms", med("shard.plan"), "ms");
  add("shard.stitch_ms", med("shard.stitch"), "ms");
  const auto sweeps = spans.named("shard.sweep");
  std::vector<double> parallelism;
  double width = 0.0;
  for (const Span* s : sweeps.empty() ? loops : sweeps) {
    parallelism.push_back(s->attr("busy_ms") / s->ms());
    width = s->attr("parallel_width");
  }
  add("shard.parallelism", median_or(parallelism, 0.0), "ratio");
  add("shard.parallel_width", width, "count");

  // net: the workload's own wire traffic when it has any, else the
  // in-process worker round trip.
  add("net.codec_us", med("net.codec") * 1e3, "us");
  add("net.bytes_per_job",
      median_or(spans.attr_values("net.codec", "bytes"), 0.0), "bytes");
  std::vector<double> net_overhead;
  for (const Span* s : spans.named("net.request")) {
    net_overhead.push_back(s->ms() - s->attr("total_ms"));
    retries.push_back(s->attr("retries"));
  }
  add("net.overhead_ms",
      net_overhead.empty() ? median_or(overhead, 0.0) : median(net_overhead),
      "ms");
  double retry_sum = 0.0;
  for (const double r : retries) retry_sum += r;
  add("net.retries", retry_sum, "count");

  add("trace.overhead_pct", trace_overhead_pct, "%");
  return out;
}

}  // namespace perfbench

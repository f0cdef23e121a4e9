#include "api/session.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "api/service.hpp"
#include "fft/kernels/kernel.hpp"

namespace bismo::api {
namespace {

using Clock = std::chrono::steady_clock;

/// Maximum idle warm WorkspaceSets kept for reuse.  Leases checked out by
/// running jobs never count against the cap; returning a set past it
/// evicts the least-recently-used idle set.
constexpr std::size_t kIdleWorkspaceCap = 4;

double elapsed_seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Load the clip's Layout once for layout-based kinds (so the tile lookup
/// and the rasterization cannot disagree and files are parsed once);
/// nullopt for generator/raw-grid clips.
std::optional<Layout> load_layout(const ClipSource& clip) {
  switch (clip.kind) {
    case ClipSource::Kind::kLayoutFile:
      return read_layout(clip.layout_path);
    case ClipSource::Kind::kLayout:
      return clip.layout;
    default:
      return std::nullopt;
  }
}

/// Effective configuration given the (possibly preloaded) layout.
SmoConfig resolve_config_impl(const JobSpec& spec, const Layout* layout) {
  SmoConfig config = spec.config;
  apply_config_overrides(config, spec.config_overrides);
  switch (spec.clip.kind) {
    case ClipSource::Kind::kLayoutFile:
    case ClipSource::Kind::kLayout: {
      // A layout clip fixes the physical tile: the rasterized grid spans
      // the whole tile, so the pixel pitch is tile / mask_dim regardless
      // of the config default.
      const double tile = layout != nullptr ? layout->tile_nm() : 0.0;
      if (tile > 0.0) {
        config.optics.pixel_nm =
            tile / static_cast<double>(config.optics.mask_dim);
      }
      break;
    }
    case ClipSource::Kind::kRawGrid: {
      // A raw grid fixes the discretization instead.
      if (spec.clip.grid.rows() != spec.clip.grid.cols()) {
        throw std::invalid_argument("ClipSource: raw grid must be square");
      }
      config.optics.mask_dim = spec.clip.grid.rows();
      break;
    }
    case ClipSource::Kind::kGenerator:
      break;  // the generator adapts to the configured tile
  }
  config.validate();
  return config;
}

/// Materialize the clip as a rasterized target grid for `config`.
RealGrid resolve_target(const ClipSource& clip, const SmoConfig& config,
                        const Layout* layout) {
  if (layout != nullptr) return layout->rasterize(config.optics.mask_dim);
  switch (clip.kind) {
    case ClipSource::Kind::kGenerator: {
      DatasetSpec spec = dataset_spec(clip.dataset);
      spec.tile_nm = config.optics.tile_nm();
      return generate_clip(spec, clip.seed)
          .rasterize(config.optics.mask_dim);
    }
    case ClipSource::Kind::kRawGrid:
      return clip.grid;
    default:
      throw std::invalid_argument("ClipSource: layout clip without layout");
  }
}

const Layout* layout_ptr(const std::optional<Layout>& layout) {
  return layout.has_value() ? &*layout : nullptr;
}

}  // namespace

Session::Session(Options options)
    : width_(options.threads > 0
                 ? options.threads
                 : std::max<std::size_t>(
                       1, std::thread::hardware_concurrency())),
      observer_(std::move(options.on_progress)),
      event_observer_(std::move(options.on_event)) {
  detail::JobService::Config config;
  config.lanes = options.scheduler_lanes;
  config.width = width_;
  config.queue_capacity = options.queue_capacity;
  config.coalesce_limit = options.coalesce_limit;
  config.execute = [this](detail::JobState& state, ThreadPool* pool) {
    return execute_job(state, pool);
  };
  config.emit = [this](const JobEvent& event, const detail::JobState& state) {
    emit_event(event, state);
  };
  config.dispatch_end = [this] { flush_sticky_lease(); };
  service_ = std::make_unique<detail::JobService>(std::move(config));
}

Session::~Session() = default;

ThreadPool& Session::pool() {
  std::call_once(pool_once_, [this] { pool_storage_.emplace(width_); });
  return *pool_storage_;
}

Session::Stats Session::stats() const noexcept {
  Stats s;
  s.jobs_submitted = service_->jobs_submitted();
  s.jobs_run = jobs_run_.load(std::memory_order_relaxed);
  s.jobs_cancelled = service_->jobs_cancelled();
  s.workspace_reuses = workspace_reuses_.load(std::memory_order_relaxed);
  s.workspace_evictions = workspace_evictions_.load(std::memory_order_relaxed);
  s.lane_pool_reuses = service_->pool_reuses();
  s.queue_depth = service_->queue_depth();
  s.jobs_executing = service_->jobs_executing();
  s.steals = service_->steals();
  s.coalesced_jobs = service_->coalesced_jobs();
  s.jobs_shed = service_->jobs_shed();
  s.jobs_rejected = service_->jobs_rejected();
  return s;
}

void Session::request_cancel() noexcept { service_->cancel_all(); }

bool Session::cancel_requested() const noexcept {
  return service_->cancel_draining();
}

SmoConfig Session::resolve_config(const JobSpec& spec) const {
  const std::optional<Layout> layout = load_layout(spec.clip);
  return resolve_config_impl(spec, layout_ptr(layout));
}

Session::WorkspaceLease Session::acquire_workspaces(std::size_t mask_dim) {
  WorkspaceLease lease;
  lease.dim = mask_dim;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    // Prefer the most recently used idle set of this dimension (warmest
    // caches, freshest FFT plans).
    auto best = idle_workspaces_.end();
    for (auto it = idle_workspaces_.begin(); it != idle_workspaces_.end();
         ++it) {
      if (it->dim != mask_dim) continue;
      if (best == idle_workspaces_.end() || it->last_used > best->last_used) {
        best = it;
      }
    }
    if (best != idle_workspaces_.end()) {
      lease.set = std::move(best->set);
      lease.reused = true;
      idle_workspaces_.erase(best);
      return lease;
    }
  }
  // Cold path outside the lock: WorkspaceSet construction allocates.
  lease.set = std::make_shared<sim::WorkspaceSet>();
  lease.reused = false;
  return lease;
}

std::size_t Session::release_workspaces(WorkspaceLease lease) {
  std::size_t evictions = 0;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    CacheEntry entry;
    entry.set = std::move(lease.set);
    entry.dim = lease.dim;
    entry.last_used = ++cache_tick_;
    idle_workspaces_.push_back(std::move(entry));
    while (idle_workspaces_.size() > kIdleWorkspaceCap) {
      auto lru = std::min_element(
          idle_workspaces_.begin(), idle_workspaces_.end(),
          [](const CacheEntry& a, const CacheEntry& b) {
            return a.last_used < b.last_used;
          });
      idle_workspaces_.erase(lru);
      ++evictions;
    }
  }
  if (evictions > 0) {
    workspace_evictions_.fetch_add(evictions, std::memory_order_relaxed);
  }
  return evictions;
}

Session::StickyLease& Session::sticky_slot() {
  static thread_local StickyLease slot;
  return slot;
}

void Session::flush_sticky_lease() {
  StickyLease& slot = sticky_slot();
  if (slot.owner != this) return;
  slot.owner = nullptr;
  if (slot.lease.set != nullptr) {
    release_workspaces(std::move(slot.lease));
  }
  slot.lease = WorkspaceLease{};
}

void Session::deliver_event(const PendingEvent& pending) {
  const JobEvent& event = pending.event;
  if (observer_ && event.kind == JobEvent::Kind::kStep) {
    // Legacy per-step adapter: Progress is a projection of the step event.
    Progress progress;
    progress.job_index = event.batch_index;
    progress.job_count = event.batch_count;
    progress.job_name = event.job_name;
    progress.method = event.method;
    progress.step = event.step;
    progress.planned_steps = event.planned_steps;
    observer_(progress);
  }
  if (event_observer_) event_observer_(event);
  if (pending.per_job) pending.per_job(event);
}

void Session::emit_event(const JobEvent& event,
                         const detail::JobState& state) {
  // Fast path for unobserved jobs: the sub-millisecond serving regime
  // must not serialize every event on the emission lock.
  if (observer_ == nullptr && event_observer_ == nullptr &&
      state.options.on_event == nullptr) {
    return;
  }
  // Append under the buffer lock, then elect at most one drainer, which
  // fans queued batches out OUTSIDE the lock until the buffer runs dry.
  // Lanes behind a slow observer enqueue and move on instead of convoying
  // on the emission mutex; global FIFO order and the
  // one-observer-call-at-a-time contract are both preserved (single
  // drainer).  Re-entrant emissions (an observer cancels a job, whose
  // finished event emits on the observing thread) simply append and are
  // picked up by the already-running drain loop -- no recursion.
  {
    std::lock_guard<std::mutex> lock(event_mutex_);
    event_queue_.push_back(PendingEvent{event, state.options.on_event});
    if (event_draining_) return;
    event_draining_ = true;
  }
  std::vector<PendingEvent> batch;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(event_mutex_);
      if (event_queue_.empty()) {
        event_draining_ = false;
        return;
      }
      batch.clear();
      batch.swap(event_queue_);
    }
    for (const PendingEvent& pending : batch) deliver_event(pending);
  }
}

std::shared_ptr<SmoProblem> Session::make_problem(const JobSpec& spec) {
  const std::optional<Layout> layout = load_layout(spec.clip);
  const SmoConfig config = resolve_config_impl(spec, layout_ptr(layout));
  RealGrid target = resolve_target(spec.clip, config, layout_ptr(layout));
  WorkspaceLease lease = acquire_workspaces(config.optics.mask_dim);
  auto problem = std::make_unique<SmoProblem>(config, std::move(target),
                                              &pool(), lease.set);
  // The lease stays checked out for the problem's whole lifetime, so the
  // escape hatch can never alias a WorkspaceSet with a scheduler lane; the
  // custom deleter returns it to the idle cache.
  Session* session = this;
  return std::shared_ptr<SmoProblem>(
      problem.release(), [session, lease](SmoProblem* p) {
        delete p;
        session->release_workspaces(lease);
      });
}

JobResult Session::execute_job(detail::JobState& state, ThreadPool* pool) {
  const auto start = Clock::now();
  JobResult result;
  result.job_name = state.name;
  result.method = state.method_name;
  result.clip = state.clip_desc;
  result.fft_backend = fft::backend_name();
  jobs_run_.fetch_add(1, std::memory_order_relaxed);

  RunControl control;
  control.cancel = &state.cancel;
  // Compose the session-wide drain token only into jobs that were already
  // submitted when the cancel was requested; work submitted during a
  // still-settling drain runs normally (auto-rearm contract).
  if (state.submit_generation < service_->cancel_generation()) {
    control.session_cancel = service_->session_token();
  }

  // A pending cancel drains the job before any setup work (clip loading,
  // engine construction, metric evaluation) so a cancelled queue exits
  // promptly instead of paying full setup per remaining job.
  if (control.stop_requested()) {
    result.run.method = result.method;
    result.run.cancelled = true;
    result.total_seconds = elapsed_seconds(start);
    return result;
  }

  const JobSpec& spec = state.spec;
  WorkspaceLease lease;
  try {
    const std::optional<Layout> layout = load_layout(spec.clip);
    const SmoConfig config = resolve_config_impl(spec, layout_ptr(layout));
    // A lease parked by the previous member of this lane's coalesced
    // dispatch is the warmest possible set -- take it without touching
    // the cache lock.  A parked lease of the wrong dimension flushes.
    StickyLease& slot = sticky_slot();
    if (slot.owner == this && slot.lease.set != nullptr &&
        slot.lease.dim == config.optics.mask_dim) {
      lease = std::move(slot.lease);
      lease.reused = true;
      slot.owner = nullptr;
      slot.lease = WorkspaceLease{};
    } else {
      flush_sticky_lease();
      lease = acquire_workspaces(config.optics.mask_dim);
    }
    result.workspaces_reused = lease.reused;
    if (lease.reused) {
      workspace_reuses_.fetch_add(1, std::memory_order_relaxed);
    }

    RealGrid target = resolve_target(spec.clip, config, layout_ptr(layout));
    const SmoProblem problem(config, std::move(target), pool, lease.set);
    result.setup_seconds = elapsed_seconds(start);

    const int planned = bismo::planned_steps(spec.method, config);
    const bool observed = observer_ != nullptr ||
                          event_observer_ != nullptr ||
                          state.options.on_event != nullptr;
    if (observed) {
      control.on_step = [this, &state, planned](const StepRecord& record) {
        JobEvent event;
        event.kind = JobEvent::Kind::kStep;
        event.job_id = state.id;
        event.job_name = state.name;
        event.method = state.method_name;
        event.status = JobStatus::kRunning;
        event.batch_index = state.options.batch_index;
        event.batch_count = state.options.batch_count;
        event.step = record;
        event.planned_steps = planned;
        emit_event(event, state);
      };
    }

    if (spec.evaluate_solution) {
      result.before = problem.evaluate_solution(problem.initial_theta_m(),
                                                problem.initial_theta_j());
    }
    result.run = run_method(problem, spec.method, control);
    if (spec.evaluate_solution) {
      result.after = problem.evaluate_solution(result.run.theta_m,
                                               result.run.theta_j);
    }
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  if (lease.set != nullptr) {
    // A coalesced-dispatch member parks the lease for its successor
    // instead of a cache round-trip; the service flushes it after the
    // dispatch.  Solo dispatches release in-job, so per-result eviction
    // accounting is unchanged.
    StickyLease& slot = sticky_slot();
    if (state.coalesced_dispatch && slot.owner == nullptr &&
        slot.lease.set == nullptr) {
      slot.owner = this;
      slot.lease = std::move(lease);
      slot.lease.reused = false;
    } else {
      result.workspace_evictions = release_workspaces(std::move(lease));
    }
  }
  result.total_seconds = elapsed_seconds(start);
  return result;
}

JobHandle Session::submit(JobSpec spec, SubmitOptions options) {
  return service_->submit(std::move(spec), std::move(options));
}

JobResult Session::run(const JobSpec& spec) {
  SubmitOptions options;
  options.lanes_hint = 1;
  return submit(spec, std::move(options)).wait();
}

std::vector<JobResult> Session::run_batch(const std::vector<JobSpec>& specs,
                                          const BatchOptions& options) {
  const std::size_t n = specs.size();
  std::vector<JobResult> results(n);
  if (n == 0) return results;
  const std::size_t window =
      std::max<std::size_t>(1, std::min(options.concurrency, n));
  const std::uint64_t generation = service_->cancel_generation();

  // Sliding submission window: keep up to `window` jobs of this batch in
  // flight, refilling as any of them completes (a straggler never blocks
  // its successors).  A request_cancel during the batch stops the refill,
  // so the unsubmitted remainder drains as cancelled results -- matching
  // the historical batch-drain semantics without any sticky session state.
  //
  // A job is harvested only once its finished event has reached the
  // per-job observer.  Delivery is FIFO through one drainer, so by then
  // every event the job emitted has reached the session-wide observers
  // too; harvesting on a published result alone could return while
  // another lane's drainer still holds this batch's events.  The wake-up
  // state is shared-owned by the event lambdas, which outlive the last
  // harvest by the tail of the delivery call.
  struct BatchSync {
    std::mutex mutex;
    std::condition_variable finished_cv;
    std::vector<std::size_t> finished;  // batch indices, delivery order
  };
  auto sync = std::make_shared<BatchSync>();

  std::vector<JobHandle> handles(n);
  std::size_t submitted = 0;
  std::size_t collected = 0;
  std::size_t in_flight = 0;

  while (collected < n) {
    while (submitted < n && in_flight < window &&
           service_->cancel_generation() == generation) {
      SubmitOptions submit_options;
      submit_options.lanes_hint = window;
      submit_options.batch_index = submitted;
      submit_options.batch_count = n;
      submit_options.on_event = [sync, index = submitted](
                                    const JobEvent& event) {
        if (event.kind != JobEvent::Kind::kFinished) return;
        {
          std::lock_guard<std::mutex> lock(sync->mutex);
          sync->finished.push_back(index);
        }
        sync->finished_cv.notify_all();
      };
      handles[submitted] = submit(specs[submitted],
                                  std::move(submit_options));
      ++submitted;
      ++in_flight;
    }

    if (in_flight == 0) {
      // The refill was stopped by a cancel: the remainder never ran.
      for (std::size_t i = submitted; i < n; ++i) {
        JobResult& r = results[i];
        r.job_name = specs[i].display_name();
        r.method = to_string(specs[i].method);
        r.clip = specs[i].clip.describe();
        r.run.method = r.method;
        r.run.cancelled = true;
      }
      break;
    }

    std::vector<std::size_t> finished;
    {
      std::unique_lock<std::mutex> lock(sync->mutex);
      sync->finished_cv.wait(lock,
                             [&sync] { return !sync->finished.empty(); });
      finished.swap(sync->finished);
    }
    // finalize publishes the result before emitting the finished event.
    for (const std::size_t i : finished) {
      results[i] = *handles[i].try_result();
      handles[i] = JobHandle();
      ++collected;
      --in_flight;
    }
  }
  return results;
}

}  // namespace bismo::api

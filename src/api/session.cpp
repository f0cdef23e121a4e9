#include "api/session.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "fft/kernels/kernel.hpp"

namespace bismo::api {
namespace {

using detail::drained_result;
using detail::JobState;
using detail::make_event;
using detail::ms_between;
using Clock = JobState::Clock;

/// Cells per queue shard.  The queue has one shard per lane; idle lanes
/// steal from loaded neighbours.
constexpr std::size_t kShardCapacity = 1024;
/// Most same-key jobs one dispatch coalesces.
constexpr std::size_t kCoalesceLimit = 8;

std::size_t floor_pow2(std::size_t value) {
  std::size_t pow2 = 1;
  while (pow2 * 2 <= value) pow2 *= 2;
  return pow2;
}

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
      lane_limit_(options.scheduler_lanes > 0 ? options.scheduler_lanes
                                              : width_),
      queue_capacity_(options.queue_capacity),
      events_(std::move(options.on_event)),
      gate_(std::make_shared<detail::ServiceGate>()),
      queue_(detail::JobQueue::Config{lane_limit_, kShardCapacity}) {
  if (queue_capacity_ == 0) {
    queue_capacity_ = queue_.shard_count() * queue_.shard_capacity();
  }
  gate_->service = this;
}

Session::~Session() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  // Stop running jobs at their next step boundary and finalize everything
  // still queued, so outstanding JobHandles unblock with cancelled results
  // instead of dangling.
  request_cancel();
  for (const std::shared_ptr<JobState>& state : queue_.drain()) {
    JobStatus expected = JobStatus::kQueued;
    if (state->status.compare_exchange_strong(expected, JobStatus::kCancelled,
                                              std::memory_order_acq_rel)) {
      finalize(state, drained_result(*state), JobStatus::kCancelled);
    }
  }
  queue_.close();
  for (std::thread& lane : lanes_) lane.join();
  // Close the JobHandle::cancel gate last: a concurrent cancel either
  // entered before this and finishes against the still-live session
  // (this statement blocks on the gate), or enters after and sees null.
  std::lock_guard<std::recursive_mutex> lock(gate_->mutex);
  gate_->service = nullptr;
}

ThreadPool& Session::pool() {
  std::call_once(pool_once_, [this] { pool_storage_.emplace(width_); });
  return *pool_storage_;
}

Session::Stats Session::stats() const noexcept {
  Stats s;
  s.jobs_submitted = submitted_.load(std::memory_order_relaxed);
  s.jobs_run = jobs_run_.load(std::memory_order_relaxed);
  s.jobs_cancelled = cancelled_.load(std::memory_order_relaxed);
  s.workspace_reuses = workspace_reuses_.load(std::memory_order_relaxed);
  s.workspace_evictions = workspace_evictions_.load(std::memory_order_relaxed);
  s.lane_pool_reuses = pool_reuses_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.size();
  s.jobs_executing = executing_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.coalesced_jobs = coalesced_.load(std::memory_order_relaxed);
  s.jobs_shed = shed_.load(std::memory_order_relaxed);
  s.jobs_rejected = rejected_.load(std::memory_order_relaxed);
  return s;
}

SmoConfig Session::resolve_config(const JobSpec& spec) const {
  const std::optional<Layout> layout = load_layout(spec.clip);
  return resolve_config_impl(spec, layout_ptr(layout));
}

// -- Submission and admission ------------------------------------------

JobHandle Session::submit(JobSpec spec, SubmitOptions options) {
  std::shared_ptr<JobState> state =
      detail::new_job_state(next_id_.fetch_add(1, std::memory_order_relaxed),
                            std::move(spec), std::move(options), gate_);
  state->submit_generation =
      cancel_generation_.load(std::memory_order_acquire);
  state->queue_depth_at_submit = queue_.size();
  submitted_.fetch_add(1, std::memory_order_relaxed);

  // Emit BEFORE registering: once the job is in active_ a concurrent
  // request_cancel may finalize it, and the finished event must never
  // precede the enqueued event.
  events_.emit(make_event(*state, JobEvent::Kind::kEnqueued),
               state->options.on_event);

  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      rejected = true;
    } else {
      active_.push_back(state);
      spawn_lanes_locked();
    }
  }
  if (rejected) {
    state->status.store(JobStatus::kCancelled, std::memory_order_release);
    finalize(state, drained_result(*state), JobStatus::kCancelled);
  } else {
    admit(state);
  }
  return detail::make_handle(std::move(state));
}

void Session::admit(const std::shared_ptr<JobState>& state) {
  for (;;) {
    if (state->status.load(std::memory_order_acquire) != JobStatus::kQueued) {
      return;  // a concurrent drain/shutdown finalized it meanwhile
    }
    if (queue_.size() < queue_capacity_ && queue_.try_push(state)) return;
    switch (state->options.queue_policy) {
      case QueuePolicy::kReject: {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        JobStatus expected = JobStatus::kQueued;
        if (state->status.compare_exchange_strong(
                expected, JobStatus::kFailed, std::memory_order_acq_rel)) {
          JobResult result = drained_result(*state);
          result.run.cancelled = false;
          result.error = "rejected: dispatch queue full (" +
                         std::to_string(queue_capacity_) + " jobs)";
          result.queue_depth = state->queue_depth_at_submit;
          finalize(state, std::move(result), JobStatus::kFailed);
        }
        return;
      }
      case QueuePolicy::kShedOldest: {
        if (auto victim = queue_.shed_victim()) {
          JobStatus expected = JobStatus::kQueued;
          if (victim->status.compare_exchange_strong(
                  expected, JobStatus::kCancelled,
                  std::memory_order_acq_rel)) {
            shed_.fetch_add(1, std::memory_order_relaxed);
            JobResult result = drained_result(*victim);
            result.shed = true;
            result.queued_ms = ms_between(victim->submitted_at, Clock::now());
            result.queue_depth = victim->queue_depth_at_submit;
            finalize(victim, std::move(result), JobStatus::kCancelled);
          }
        }
        continue;  // room was made (or racing pops already made some)
      }
      case QueuePolicy::kBlock:
        queue_.wait_space(queue_capacity_);
        continue;
    }
  }
}

void Session::spawn_lanes_locked() {
  while (lanes_.size() < lane_limit_ && lanes_.size() < active_.size()) {
    const std::size_t lane = lanes_.size();
    lanes_.emplace_back([this, lane] { lane_main(lane); });
  }
}

// -- Lanes and dispatch -------------------------------------------------

void Session::lane_main(std::size_t lane) {
  std::vector<std::shared_ptr<JobState>> batch;
  for (;;) {
    std::size_t shard = 0;
    bool stolen = false;
    std::shared_ptr<JobState> head = queue_.pop(lane, &shard, &stolen);
    if (head == nullptr) return;  // closed: shutting down
    if (stolen) steals_.fetch_add(1, std::memory_order_relaxed);

    batch.clear();
    const std::uint64_t key = head->options.coalesce_key;
    batch.push_back(std::move(head));
    if (key != 0) {
      // Depth-scaled budget: batch only once the queue is deeper than the
      // lane set can drain one job at a time, so a shallow stream still
      // fans out across lanes at full width instead of serializing on one.
      const std::size_t budget =
          std::min(kCoalesceLimit, 1 + queue_.size() / lane_limit_);
      while (batch.size() < budget) {
        std::shared_ptr<JobState> more = queue_.try_pop_matching(shard, key);
        if (more == nullptr) break;
        batch.push_back(std::move(more));
      }
    }
    run_dispatch(batch);
  }
}

void Session::run_dispatch(
    const std::vector<std::shared_ptr<JobState>>& batch) {
  const std::size_t in_flight =
      running_.fetch_add(1, std::memory_order_acq_rel) + 1;

  // Load-balanced width: share the session's parallel width over the
  // dispatches in flight, never below the caller's expected sibling count
  // (lanes_hint, scaled down by the members now sharing this dispatch) so
  // the head of a batch does not monopolize the machine before its
  // siblings start.  An in-flight count of one IS the re-absorbed
  // full-width single-job run.
  std::size_t divisor = in_flight;
  const std::size_t hint = batch.front()->options.lanes_hint;
  if (hint > 0) {
    const std::size_t scaled = (hint + batch.size() - 1) / batch.size();
    divisor = std::max(divisor, std::min(scaled, lane_limit_));
  }
  std::size_t width = width_;
  if (divisor > 1) {
    // Quantized so a fluctuating in-flight count re-requests the same few
    // widths and keeps hitting warm pools instead of minting new ones.
    width = floor_pow2(std::max<std::size_t>(1, width_ / divisor));
  }
  std::unique_ptr<ThreadPool> pool;
  if (width > 1) {
    pool = pools_.checkout(width);
    if (pool != nullptr) {
      pool_reuses_.fetch_add(1, std::memory_order_relaxed);
    } else {
      pool = std::make_unique<ThreadPool>(width);  // spawns threads
    }
  }

  // A coalesced dispatch holds one workspace lease across its members and
  // returns it once they are all finalized; a solo job returns its own
  // lease in execute_job, which attributes evictions to its result.
  const bool coalesced = batch.size() > 1;
  WorkspaceLease lease;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::shared_ptr<JobState>& state = batch[i];
    JobStatus expected = JobStatus::kQueued;
    if (!state->status.compare_exchange_strong(expected, JobStatus::kRunning,
                                               std::memory_order_acq_rel)) {
      continue;  // cancelled while queued; the cancelling thread finalized
    }

    state->started_at = Clock::now();
    const double queued_ms =
        ms_between(state->submitted_at, state->started_at);
    if (i > 0) coalesced_.fetch_add(1, std::memory_order_relaxed);
    executing_.fetch_add(1, std::memory_order_relaxed);

    if (events_.observed(state->options.on_event)) {
      JobEvent event = make_event(*state, JobEvent::Kind::kStarted);
      event.queued_ms = queued_ms;
      events_.emit(event, state->options.on_event);
    }

    JobResult result = execute_job(*state, pool.get(), lease, coalesced);
    executing_.fetch_sub(1, std::memory_order_relaxed);

    result.queued_ms = queued_ms;
    result.run_ms = ms_between(state->started_at, Clock::now());
    result.queue_depth = state->queue_depth_at_submit;
    const JobStatus status = detail::terminal_status(result);
    finalize(state, std::move(result), status);
  }

  if (lease.set != nullptr) release_workspaces(std::move(lease));
  if (pool != nullptr) {
    const std::size_t pool_width = pool->width();
    // The evicted pool (if any) joins its workers outside the cache lock.
    pools_.give_back(pool_width, std::move(pool));
  }
  running_.fetch_sub(1, std::memory_order_acq_rel);
}

// -- Cancellation and finalization --------------------------------------

void Session::cancel_job(const std::shared_ptr<JobState>& state) {
  JobStatus expected = JobStatus::kQueued;
  if (state->status.compare_exchange_strong(expected, JobStatus::kCancelled,
                                            std::memory_order_acq_rel)) {
    JobResult result = drained_result(*state);
    result.queued_ms = ms_between(state->submitted_at, Clock::now());
    finalize(state, std::move(result), JobStatus::kCancelled);
    return;
  }
  // Running (or about to be): the private token stops it at the next step
  // boundary.  Harmless on terminal jobs.
  state->cancel.request();
}

void Session::request_cancel() noexcept {
  std::vector<std::shared_ptr<JobState>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = active_;
    std::size_t doomed = 0;
    for (const std::shared_ptr<JobState>& state : snapshot) {
      // Skip jobs already doomed by an overlapping cancel: counting one
      // job twice would leak drain_pending_ and leave the session token
      // raised forever.
      if (state->doomed) continue;
      if (state->status.load(std::memory_order_acquire) ==
          JobStatus::kRunning) {
        state->doomed = true;
        ++doomed;
      }
    }
    if (doomed > 0) {
      drain_pending_ += doomed;
      // Raised only for the drain window; finalize() re-arms it when the
      // last doomed job retires, so cancellation is never sticky.
      session_cancel_.request();
    }
    cancel_generation_.fetch_add(1, std::memory_order_acq_rel);
  }
  for (const std::shared_ptr<JobState>& state : snapshot) cancel_job(state);
}

bool Session::cancel_requested() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return drain_pending_ > 0;
}

void Session::finalize(const std::shared_ptr<JobState>& state,
                       JobResult result, JobStatus status) {
  if (state->finalized.exchange(true, std::memory_order_acq_rel)) {
    return;  // cancel/lane race: first finalizer wins
  }
  if (status == JobStatus::kCancelled) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
  }
  // Retire from the registry BEFORE waking waiters: a caller observing the
  // job as finished must also observe the session token re-armed when this
  // was the last doomed job of a drain.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    active_.erase(std::remove(active_.begin(), active_.end(), state),
                  active_.end());
    if (state->doomed) {
      state->doomed = false;
      if (--drain_pending_ == 0) session_cancel_.reset();
    }
  }
  events_.emit(detail::publish_result(*state, std::move(result), status),
               state->options.on_event);
}

// -- Execution ----------------------------------------------------------

Session::WorkspaceLease Session::acquire_workspaces(std::size_t mask_dim) {
  WorkspaceLease lease;
  lease.dim = mask_dim;
  lease.set = workspaces_.checkout(mask_dim);
  lease.reused = lease.set != nullptr;
  // Cold path outside the cache lock: WorkspaceSet construction allocates.
  if (!lease.reused) lease.set = std::make_shared<sim::WorkspaceSet>();
  return lease;
}

std::size_t Session::release_workspaces(WorkspaceLease lease) {
  if (workspaces_.give_back(lease.dim, std::move(lease.set)) == nullptr) {
    return 0;
  }
  workspace_evictions_.fetch_add(1, std::memory_order_relaxed);
  return 1;
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

JobResult Session::execute_job(JobState& state, ThreadPool* pool,
                               WorkspaceLease& lease, bool keep_lease) {
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
  if (state.submit_generation <
      cancel_generation_.load(std::memory_order_acquire)) {
    control.session_cancel = &session_cancel_;
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
  try {
    const std::optional<Layout> layout = load_layout(spec.clip);
    const SmoConfig config = resolve_config_impl(spec, layout_ptr(layout));
    // A lease held over from the previous member of this coalesced
    // dispatch is the warmest possible set; one of another dimension goes
    // back to the cache first.
    if (lease.set != nullptr && lease.dim == config.optics.mask_dim) {
      lease.reused = true;
    } else {
      if (lease.set != nullptr) release_workspaces(std::move(lease));
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
    if (events_.observed(state.options.on_event)) {
      control.on_step = [this, &state, planned](const StepRecord& record) {
        JobEvent event = make_event(state, JobEvent::Kind::kStep);
        event.step = record;
        event.planned_steps = planned;
        events_.emit(event, state.options.on_event);
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
  if (lease.set != nullptr && !keep_lease) {
    result.workspace_evictions = release_workspaces(std::move(lease));
  }
  result.total_seconds = elapsed_seconds(start);
  return result;
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
  const std::uint64_t generation =
      cancel_generation_.load(std::memory_order_acquire);

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
           cancel_generation_.load(std::memory_order_acquire) == generation) {
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

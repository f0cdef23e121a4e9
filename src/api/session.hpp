// api::Session -- the single supported way to execute SMO runs.
//
// A Session is an asynchronous job service.  Work is described
// declaratively (api::JobSpec) and enqueued with `submit`, which returns
// immediately with a JobHandle (status / wait / try_result / per-job
// cancel) while a persistent lane scheduler (api/service.hpp) executes
// jobs from a priority/FIFO queue.  The scheduler load-balances the
// session's parallel width across the jobs in flight -- a lone job runs
// full-width, a saturated queue shards into narrow lanes -- leasing warm
// ThreadPools and warm sim::WorkspaceSets from LRU caches so steady-state
// serving never tears execution state down between jobs.  `run` and
// `run_batch` are thin synchronous wrappers over submit+wait and preserve
// their historical semantics (results in spec order, failures contained
// per job, bitwise-identical results for any concurrency).
//
// Observation: every job emits a JobEvent stream (enqueued -> started ->
// step* -> finished) to the session-wide `Options::on_event` observer and
// the per-job `SubmitOptions::on_event` observer.  The legacy per-step
// ProgressObserver is an adapter over the same feed and remains supported.
// All observer invocations are serialized by the session, and delivery is
// batched: lanes append events to a buffer and one drainer fans them out
// outside the emission lock, so a slow observer never stalls a lane.
//
// Cancellation is per job and composable: `JobHandle::cancel()` stops one
// job without touching its siblings; `Session::request_cancel()` drains
// exactly the work in flight at the request and then re-arms
// automatically, so new submissions run normally (no sticky poison).
//
// Failure containment: job-level problems (bad layout file, invalid
// configuration, ...) never throw out of submit/run paths; the error is
// captured in JobResult::error and sibling jobs continue.
#ifndef BISMO_API_SESSION_HPP
#define BISMO_API_SESSION_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/job_handle.hpp"
#include "api/job_result.hpp"
#include "api/job_spec.hpp"
#include "api/submitter.hpp"
#include "core/run_control.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/workspace.hpp"

namespace bismo::api {

namespace detail {
class JobService;
}

/// One progress event: a freshly completed optimizer step of one job.
/// Legacy adapter over the JobEvent feed (see JobEvent::Kind::kStep).
struct Progress {
  std::size_t job_index = 0;  ///< position in the batch (0 for single runs)
  std::size_t job_count = 1;  ///< batch size (1 for single runs)
  std::string job_name;       ///< JobSpec::display_name()
  std::string method;         ///< method being run
  StepRecord step;            ///< the step just recorded
  int planned_steps = 0;      ///< expected trace length for this job
};

/// Invoked after every recorded step of any job; keep cheap.  Calls are
/// serialized by the session (jobs progress on scheduler lanes), and it is
/// safe to call Session::request_cancel() from the observer.
using ProgressObserver = std::function<void(const Progress&)>;

/// Execution context shared by a sequence of jobs.  Implements the
/// JobSubmitter serving contract (net::Dispatcher is the multi-process
/// implementation of the same interface).
class Session : public JobSubmitter {
 public:
  struct Options {
    std::size_t threads = 0;       ///< parallel width (0 = hardware)
    /// Maximum jobs executing concurrently on scheduler lanes
    /// (0 = parallel width).  Lanes are persistent: spawned lazily on
    /// demand and kept for the session's lifetime.
    std::size_t scheduler_lanes = 0;
    ProgressObserver on_progress;  ///< legacy per-step observer
    JobEventObserver on_event;     ///< session-wide job event feed
    /// Queued jobs past which SubmitOptions::queue_policy applies
    /// (0 = lanes * 1024, effectively unbounded for the default block
    /// policy).  Size this to bound queue latency under overload.
    std::size_t queue_capacity = 0;
    /// Maximum same-key sub-millisecond jobs coalesced into one lane
    /// dispatch (1 disables; see SubmitOptions::coalesce_key).
    std::size_t coalesce_limit = 8;
  };

  /// Per-batch execution options for the synchronous `run_batch` wrapper.
  struct BatchOptions {
    /// Jobs of this batch in flight simultaneously.  1 = classic
    /// sequential batch (each job runs full-width); k > 1 keeps a sliding
    /// window of k jobs submitted, each sharing ~1/k of the width.
    /// Results are bitwise identical either way -- reductions are
    /// slot-deterministic.
    std::size_t concurrency = 1;
  };

  /// Cross-job reuse counters plus live serving gauges.
  struct Stats {
    std::size_t jobs_submitted = 0;       ///< accepted by submit()
    std::size_t jobs_run = 0;             ///< reached a scheduler lane
    std::size_t jobs_cancelled = 0;       ///< finalized as cancelled
    std::size_t workspace_reuses = 0;     ///< jobs served by a warm set
    std::size_t workspace_evictions = 0;  ///< idle sets dropped by the cap
    std::size_t lane_pool_reuses = 0;     ///< dispatches on a warm pool
    std::size_t queue_depth = 0;          ///< live: jobs waiting right now
    std::size_t jobs_executing = 0;       ///< live: jobs on lanes right now
    std::size_t steals = 0;               ///< jobs drained from a neighbour
    std::size_t coalesced_jobs = 0;       ///< jobs riding a shared dispatch
    std::size_t jobs_shed = 0;            ///< cancelled by shed-oldest
    std::size_t jobs_rejected = 0;        ///< refused by reject policy
  };

  Session() : Session(Options{}) {}
  explicit Session(Options options);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Finalizes every outstanding job as cancelled and joins the scheduler;
  /// outstanding JobHandles stay safe to query afterwards.
  ~Session() override;

  /// The shared worker pool (escape-hatch problems and image rendering;
  /// its width is the session's parallel width).  Constructed lazily on
  /// first use: scheduler lanes lease their own pools, so sessions that
  /// only submit jobs never pay for an idle full-width pool.
  ThreadPool& pool();

  /// The session's parallel width (what pool().width() will report).
  std::size_t width() const noexcept { return width_; }

  /// JobSubmitter width: same as width().
  std::size_t parallel_width() const noexcept override { return width_; }

  // -- Asynchronous service API ----------------------------------------

  /// Enqueue one job and return immediately.  Job-level validation errors
  /// surface in the eventual JobResult::error, never as exceptions.
  /// (submit_batch is inherited from JobSubmitter.)
  JobHandle submit(JobSpec spec, SubmitOptions options = {}) override;

  /// Cancel every currently queued or running job (queued jobs finalize
  /// immediately; running jobs stop at the next step boundary).  The
  /// session re-arms automatically once the drain completes -- jobs
  /// submitted after this call run normally.  Callable from any observer.
  void request_cancel() noexcept;

  /// True while a request_cancel drain is still in flight.
  bool cancel_requested() const noexcept;

  Stats stats() const noexcept;

  // -- Synchronous wrappers --------------------------------------------

  /// Execute one job: submit + wait.  Never throws for job-level
  /// failures; see JobResult::error.
  JobResult run(const JobSpec& spec);

  /// Execute jobs through the scheduler, `options.concurrency` at a time,
  /// returning results in spec order.  Continues past failed jobs; a
  /// request_cancel drains the remainder as cancelled results.
  std::vector<JobResult> run_batch(const std::vector<JobSpec>& specs) {
    return run_batch(specs, BatchOptions{});
  }
  std::vector<JobResult> run_batch(const std::vector<JobSpec>& specs,
                                   const BatchOptions& options);

  // -- Spec utilities ---------------------------------------------------

  /// The spec's effective configuration: base config + clip-derived pixel
  /// pitch + overrides, validated.  Throws std::invalid_argument on bad
  /// overrides (this is what job execution captures into
  /// JobResult::error).
  SmoConfig resolve_config(const JobSpec& spec) const;

  /// Build the problem a spec describes, on this session's shared pool --
  /// the escape hatch for custom loops (examples that drive the gradient
  /// engine directly).  The problem checks a WorkspaceSet out of the
  /// lease cache for its whole lifetime, so it never aliases scheduler
  /// lanes; the lease returns when the returned pointer is destroyed.
  /// Throws on invalid specs.  Destroy before the session.
  std::shared_ptr<SmoProblem> make_problem(const JobSpec& spec);

 private:
  friend class detail::JobService;

  /// A checked-out warm workspace set.
  struct WorkspaceLease {
    std::shared_ptr<sim::WorkspaceSet> set;
    std::size_t dim = 0;
    bool reused = false;  ///< served from the idle cache
  };

  /// One idle (checked-in) warm set.
  struct CacheEntry {
    std::shared_ptr<sim::WorkspaceSet> set;
    std::size_t dim = 0;
    std::uint64_t last_used = 0;  ///< LRU tick
  };

  /// One buffered observer delivery: the event plus a copy of the job's
  /// per-job observer (the JobState may be finalized and released by the
  /// time a drainer gets to it).
  struct PendingEvent {
    JobEvent event;
    JobEventObserver per_job;
  };

  /// Scheduler-lane job execution (detail::JobService::Config::execute).
  JobResult execute_job(detail::JobState& state, ThreadPool* pool);

  /// Fan one event out to the session-wide and per-job observers
  /// (detail::JobService::Config::emit): append to event_queue_ and elect
  /// at most one drainer.
  void emit_event(const JobEvent& event, const detail::JobState& state);

  /// Deliver one buffered event to the observers (drainer-serialized).
  void deliver_event(const PendingEvent& pending);

  /// Check a warm set for `mask_dim` out of the cache (or create a cold
  /// one).  Thread-safe.
  WorkspaceLease acquire_workspaces(std::size_t mask_dim);

  /// Return a lease to the idle cache; evicts least-recently-used idle
  /// sets past the cap.  Returns the number of evictions performed.
  /// Thread-safe.
  std::size_t release_workspaces(WorkspaceLease lease);

  /// Lane-thread parking slot for one lease: consecutive members of a
  /// coalesced dispatch hand the same warm WorkspaceSet to each other
  /// without a cache round-trip.  Thread-local, so no lock is involved.
  struct StickyLease {
    Session* owner = nullptr;  ///< sessions never share a parked lease
    WorkspaceLease lease;
  };
  static StickyLease& sticky_slot();

  /// Return this lane's parked lease (when it is ours) to the idle cache;
  /// the service calls this after every dispatch (Config::dispatch_end).
  void flush_sticky_lease();

  std::size_t width_;
  std::once_flag pool_once_;
  std::optional<ThreadPool> pool_storage_;
  ProgressObserver observer_;
  JobEventObserver event_observer_;
  /// Emission buffer lock: guards event_queue_/event_draining_ only --
  /// never held across an observer call.
  std::mutex event_mutex_;
  std::vector<PendingEvent> event_queue_;
  bool event_draining_ = false;

  std::mutex cache_mutex_;
  std::vector<CacheEntry> idle_workspaces_;
  std::uint64_t cache_tick_ = 0;

  std::atomic<std::size_t> jobs_run_{0};
  std::atomic<std::size_t> workspace_reuses_{0};
  std::atomic<std::size_t> workspace_evictions_{0};

  // Declared last so it is destroyed first: lanes may still be executing
  // jobs that touch the members above.
  std::unique_ptr<detail::JobService> service_;
};

}  // namespace bismo::api

#endif  // BISMO_API_SESSION_HPP

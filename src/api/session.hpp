// api::Session -- the single supported way to execute SMO runs.
//
// A Session is an asynchronous job service.  Work is described
// declaratively (api::JobSpec) and enqueued with `submit`, which returns
// immediately with a JobHandle (status / wait / try_result / per-job
// cancel).  `run` and `run_batch` are thin synchronous wrappers over
// submit+wait and preserve their historical semantics (results in spec
// order, failures contained per job, bitwise-identical results for any
// concurrency).
//
// Scheduling: submitted jobs enter a sharded, mostly-lock-free JobQueue
// (one ring per lane; see api/job_queue.hpp).  Long-lived lane threads,
// spawned lazily up to a fixed limit, pop from their own shard first and
// steal from loaded neighbours.  Each dispatch shares the session's
// parallel width over the dispatches in flight -- width = session width /
// max(in-flight, lanes_hint), quantized to a power of two -- so an idle
// machine re-absorbs into full-width single-job runs and a saturated one
// shards into one-worker lanes.  Warm ThreadPools and warm
// sim::WorkspaceSets come from one kind of LRU cache (api/idle_cache.hpp),
// so steady-state serving never tears execution state down between jobs.
// Width never changes results: engine reductions are partitioned over the
// fixed slots of parallel/reduction.hpp.
//
// Coalescing: a popped job carrying a non-zero SubmitOptions::coalesce_key
// gathers queued same-key neighbours from its shard into the one dispatch
// (at most 8 jobs), which holds a single workspace lease across
// its members.  The batch budget scales with queue depth per lane, so
// coalescing engages only once the lanes cannot drain the queue one job at
// a time.  Members keep their own events, results and cancel windows.
//
// Admission control: past Options::queue_capacity queued jobs, submit
// applies SubmitOptions::queue_policy -- block until room, reject
// (kFailed, error set), or shed the oldest queued job (kCancelled,
// JobResult::shed set).
//
// Observation: every job emits a JobEvent stream (enqueued -> started ->
// step* -> finished) to the session-wide `Options::on_event` observer and
// the per-job `SubmitOptions::on_event` observer through one
// detail::EventFeed: calls are serialized, and a slow observer never
// stalls a lane.
//
// Cancellation is per job and composable: `JobHandle::cancel()` stops one
// job without touching its siblings (a queued job finalizes at once, a
// running one stops at its next step boundary); `Session::request_cancel()`
// drains exactly the work in flight at the request and then re-arms
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
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "api/idle_cache.hpp"
#include "api/job_handle.hpp"
#include "api/job_queue.hpp"
#include "api/job_result.hpp"
#include "api/job_spec.hpp"
#include "api/submitter.hpp"
#include "core/run_control.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/workspace.hpp"

namespace bismo::api {

/// Execution context shared by a sequence of jobs.  Implements the
/// JobSubmitter serving contract (net::Dispatcher is the multi-process
/// implementation of the same interface).
class Session : public JobSubmitter, private detail::JobRouter {
 public:
  struct Options {
    std::size_t threads = 0;       ///< parallel width (0 = hardware)
    /// Maximum jobs executing concurrently on scheduler lanes
    /// (0 = parallel width).  Lanes are persistent: spawned lazily on
    /// demand and kept for the session's lifetime.
    std::size_t scheduler_lanes = 0;
    /// Session-wide job event feed.  Calls are serialized by the session;
    /// it is safe to call Session::request_cancel() from the observer.
    JobEventObserver on_event;
    /// Queued jobs past which SubmitOptions::queue_policy applies
    /// (0 = lanes * 1024, effectively unbounded for the default block
    /// policy).  Size this to bound queue latency under overload.
    std::size_t queue_capacity = 0;
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

  /// Finalizes every outstanding job as cancelled and joins the lanes;
  /// outstanding JobHandles stay safe to query afterwards.
  ~Session() override;

  /// The shared worker pool (escape-hatch problems and image rendering;
  /// its width is the session's parallel width).  Constructed lazily on
  /// first use: scheduler lanes lease their own pools, so sessions that
  /// only submit jobs never pay for an idle full-width pool.
  ThreadPool& pool();

  /// The session's parallel width (what pool().width() will report).
  std::size_t parallel_width() const noexcept override { return width_; }

  // -- Asynchronous service API ----------------------------------------

  /// Enqueue one job and return immediately (unless the queue is at
  /// capacity and the job's policy is kBlock).  Job-level validation
  /// errors surface in the eventual JobResult::error, never as exceptions.
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
  /// A checked-out warm workspace set.
  struct WorkspaceLease {
    std::shared_ptr<sim::WorkspaceSet> set;
    std::size_t dim = 0;
    bool reused = false;  ///< served from the idle cache
  };

  /// Per-job cancel (JobHandle::cancel): CAS a queued job terminal, or
  /// request a running job's token.
  void cancel_job(const std::shared_ptr<detail::JobState>& state) override;

  /// Spawn lanes up to min(lane_limit, outstanding jobs).  Registry lock
  /// held by the caller.
  void spawn_lanes_locked();

  /// Apply the job's admission policy until the queue accepts it; a job
  /// refused (or drained while waiting) is finalized here.
  void admit(const std::shared_ptr<detail::JobState>& state);

  void lane_main(std::size_t lane);

  /// Execute `batch` as one dispatch: claim each member with the queued ->
  /// running CAS, share one leased pool and one workspace lease.
  void run_dispatch(
      const std::vector<std::shared_ptr<detail::JobState>>& batch);

  /// Run one job on `pool` (nullptr = width 1, serial on the lane).  A
  /// held `lease` of the job's dimension is reused; any other is returned
  /// first.  The lease is returned after the job unless `keep_lease`.
  JobResult execute_job(detail::JobState& state, ThreadPool* pool,
                        WorkspaceLease& lease, bool keep_lease);

  /// First finalizer only: retire the job from the registry (re-arming
  /// the session token when it was the last doomed job of a drain), then
  /// publish the result and emit the finished event.
  void finalize(const std::shared_ptr<detail::JobState>& state,
                JobResult result, JobStatus status);

  /// Check a warm set for `mask_dim` out of the cache (or create a cold
  /// one).
  WorkspaceLease acquire_workspaces(std::size_t mask_dim);

  /// Return a lease to the idle cache; returns the evictions (0 or 1).
  std::size_t release_workspaces(WorkspaceLease lease);

  std::size_t width_;
  std::size_t lane_limit_;
  std::size_t queue_capacity_;
  std::once_flag pool_once_;
  std::optional<ThreadPool> pool_storage_;
  detail::EventFeed events_;
  detail::IdleCache<std::unique_ptr<ThreadPool>> pools_{2};
  detail::IdleCache<std::shared_ptr<sim::WorkspaceSet>> workspaces_{1};
  std::shared_ptr<detail::ServiceGate> gate_;  ///< JobHandle::cancel liveness
  detail::JobQueue queue_;

  mutable std::mutex mutex_;  ///< registry, lanes, drain bookkeeping
  std::vector<std::shared_ptr<detail::JobState>> active_;  ///< queued+running
  std::vector<std::thread> lanes_;
  std::size_t drain_pending_ = 0;  ///< doomed jobs still finalizing
  bool shutdown_ = false;

  CancelToken session_cancel_;  ///< composed into doomed jobs' RunControl
  std::atomic<std::uint64_t> cancel_generation_{0};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::size_t> running_{0};    ///< dispatches in flight
  std::atomic<std::size_t> executing_{0};  ///< jobs in flight

  std::atomic<std::size_t> submitted_{0};
  std::atomic<std::size_t> jobs_run_{0};
  std::atomic<std::size_t> cancelled_{0};
  std::atomic<std::size_t> workspace_reuses_{0};
  std::atomic<std::size_t> workspace_evictions_{0};
  std::atomic<std::size_t> pool_reuses_{0};
  std::atomic<std::size_t> steals_{0};
  std::atomic<std::size_t> coalesced_{0};
  std::atomic<std::size_t> shed_{0};
  std::atomic<std::size_t> rejected_{0};
};

}  // namespace bismo::api

#endif  // BISMO_API_SESSION_HPP

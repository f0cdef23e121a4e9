// JobService: the persistent, load-balanced lane scheduler behind
// api::Session's asynchronous submission API.
//
// One service lives as long as its session.  Submitted jobs enter a
// sharded, mostly-lock-free JobQueue (one ring per lane + an occupancy
// bitset; see api/job_queue.hpp); long-lived lane threads (spawned lazily
// up to a fixed limit) pop from their own shard first and steal from
// loaded neighbours, executing jobs through a callback into the session.
// Each dispatch picks its parallel width from the live load -- width =
// session width / max(in-flight dispatches, lanes_hint) -- leasing a warm
// ThreadPool of that width from an LRU pool cache, so an idle machine
// re-absorbs into full-width single-job runs while a saturated one shards
// into one-worker lanes, and no per-batch pool teardown ever happens.
// Shared widths are quantized to powers of two so a fluctuating in-flight
// count keeps hitting the same warm pools instead of minting new ones.
// Width never changes results: engine reductions are partitioned over the
// fixed slots of parallel/reduction.hpp (bitwise identical for any width).
//
// Coalescing: a popped job carrying a non-zero SubmitOptions::coalesce_key
// gathers queued same-key neighbours from its shard into the one dispatch
// (up to Config::coalesce_limit), amortizing pool/workspace leasing over
// sub-millisecond jobs.  The batch budget scales with queue depth per
// lane, so coalescing only engages once the lanes cannot drain the queue
// one job at a time -- a shallow queue still fans out across lanes.
// Non-zero-priority jobs coalesce too, but strictly within their own
// level: a side-list head gathers same-key jobs of exactly its priority
// from the list front, so jobs never coalesce across priority levels.
// Members keep their own JobEvent streams, results and cancel windows: a
// lane claims each member with the same status CAS as a solo dispatch.
//
// Admission control: submit consults SubmitOptions::queue_policy when the
// queue holds Config::queue_capacity entries -- block until room, reject
// (kFailed, error set), or shed the oldest queued job at or below the
// entrant's priority (kCancelled, JobResult::shed set).
//
// Cancellation is per job: a queued job flips kQueued -> kCancelled with a
// single CAS and finalizes immediately (the losing lane skips it); a
// running job's private CancelToken stops it at the next step boundary.
// A session-wide cancel (cancel_all) drains exactly the work in flight at
// the request -- it cancels each active job individually and raises the
// session token only until the last of those jobs finalizes, so the
// session auto-rearms and later submissions run normally.
#ifndef BISMO_API_SERVICE_HPP
#define BISMO_API_SERVICE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "api/job_handle.hpp"
#include "api/job_queue.hpp"
#include "core/run_control.hpp"
#include "parallel/thread_pool.hpp"

namespace bismo::api::detail {

class JobService final : public JobRouter {
 public:
  struct Config {
    /// Maximum jobs executing concurrently (lane threads); 0 = width.
    std::size_t lanes = 0;
    /// The session's parallel width (shared out across in-flight jobs).
    std::size_t width = 1;
    /// Queued jobs past which SubmitOptions::queue_policy kicks in
    /// (0 = lanes * 1024, effectively unbounded).
    std::size_t queue_capacity = 0;
    /// Maximum same-key jobs batched into one lane dispatch (1 = off).
    std::size_t coalesce_limit = 8;
    /// Runs one job (never throws; failures land in JobResult::error).
    /// `pool` is the leased execution pool -- nullptr means width 1, run
    /// the engines serially on the lane thread.
    std::function<JobResult(JobState&, ThreadPool*)> execute;
    /// Serialized event sink (the session fans out to its observers).
    std::function<void(const JobEvent&, const JobState&)> emit;
    /// Invoked on the lane thread after every dispatch (solo or
    /// coalesced); the session flushes its sticky workspace lease here.
    std::function<void()> dispatch_end;
  };

  explicit JobService(Config config);

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Cancels and finalizes every outstanding job, then joins the lanes.
  ~JobService();

  /// Enqueue one job; returns immediately unless the queue is at capacity
  /// and the job's policy is kBlock.
  JobHandle submit(JobSpec spec, SubmitOptions options);

  /// Per-job cancel (JobHandle::cancel): CAS a queued job terminal, or
  /// request a running job's token.
  void cancel_job(const std::shared_ptr<JobState>& state) override;

  /// Session-wide cancel: drain all currently queued/running jobs.  The
  /// session token stays raised only while those jobs finalize
  /// (auto-rearm); jobs submitted afterwards run normally.
  void cancel_all();

  /// True while a cancel_all drain is still in flight.
  bool cancel_draining() const;

  /// Bumped by every cancel_all; synchronous batch loops compare
  /// generations to stop submitting once a drain hits their window.
  std::uint64_t cancel_generation() const noexcept {
    return cancel_generation_.load(std::memory_order_acquire);
  }

  /// The session-wide drain token, composed into every job's RunControl.
  const CancelToken* session_token() const noexcept {
    return &session_cancel_;
  }

  std::size_t lane_limit() const noexcept { return lane_limit_; }

  std::size_t jobs_submitted() const noexcept {
    return submitted_.load(std::memory_order_relaxed);
  }
  std::size_t jobs_cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }
  /// Dispatches served by a warm pool from the lane-pool cache.
  std::size_t pool_reuses() const noexcept {
    return pool_reuses_.load(std::memory_order_relaxed);
  }
  /// Live dispatch-queue depth (includes not-yet-skipped cancelled
  /// entries).
  std::size_t queue_depth() const noexcept { return queue_.size(); }
  /// Jobs executing on lanes right now.
  std::size_t jobs_executing() const noexcept {
    return executing_.load(std::memory_order_relaxed);
  }
  /// Jobs an idle lane stole from another lane's queue shard.
  std::size_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }
  /// Jobs that rode a coalesced dispatch behind its head job.
  std::size_t coalesced_jobs() const noexcept {
    return coalesced_.load(std::memory_order_relaxed);
  }
  /// Jobs cancelled by the shed-oldest admission policy.
  std::size_t jobs_shed() const noexcept {
    return shed_.load(std::memory_order_relaxed);
  }
  /// Jobs refused by the reject admission policy.
  std::size_t jobs_rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  struct PoolEntry {
    std::unique_ptr<ThreadPool> pool;
    std::size_t width = 0;
    bool in_use = false;
    std::uint64_t last_used = 0;
  };

  void lane_main(std::size_t lane);

  /// Spawn lanes up to min(lane_limit, outstanding jobs).  Registry lock
  /// held by the caller.
  void spawn_lanes_locked();

  /// Apply the job's admission policy until the queue accepts it.  True
  /// when enqueued; false when the job was finalized instead (rejected,
  /// or cancelled by a concurrent drain/shutdown while waiting).
  bool admit(const std::shared_ptr<JobState>& state);

  /// Execute `batch` as one dispatch: claim each member with the queued ->
  /// running CAS, share one leased pool, emit per-member events.
  void run_dispatch(const std::vector<std::shared_ptr<JobState>>& batch);

  /// Lease a warm pool for a dispatch of `width` workers (width >= 2):
  /// exact-width match first, else an idle pool up to twice as wide.
  ThreadPool* acquire_pool(std::size_t width);
  void release_pool(ThreadPool* pool);

  /// Build the terminal result of a job that never executed.
  static JobResult drained_result(const JobState& state);

  /// Store the result, flip to `status`, wake waiters, retire the job
  /// from the registry (re-arming the session token when it was the last
  /// doomed job of a drain), and emit the finished event.
  void finalize(const std::shared_ptr<JobState>& state, JobResult result,
                JobStatus status);

  std::size_t width_;
  std::size_t lane_limit_;
  std::size_t queue_capacity_;
  std::size_t coalesce_limit_;
  std::function<JobResult(JobState&, ThreadPool*)> execute_;
  std::function<void(const JobEvent&, const JobState&)> emit_;
  std::function<void()> dispatch_end_;
  std::shared_ptr<ServiceGate> gate_;  ///< JobHandle::cancel liveness

  JobQueue queue_;

  mutable std::mutex mutex_;  ///< registry, lanes, drain bookkeeping
  std::vector<std::shared_ptr<JobState>> active_;  ///< queued + running
  std::vector<std::thread> lanes_;
  std::size_t drain_pending_ = 0;  ///< doomed jobs still finalizing
  bool shutdown_ = false;

  CancelToken session_cancel_;
  std::atomic<std::uint64_t> cancel_generation_{0};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::size_t> running_{0};    ///< dispatches in flight
  std::atomic<std::size_t> executing_{0};  ///< jobs in flight

  std::mutex pool_mutex_;
  std::vector<PoolEntry> pools_;
  std::uint64_t pool_tick_ = 0;

  std::atomic<std::size_t> submitted_{0};
  std::atomic<std::size_t> cancelled_{0};
  std::atomic<std::size_t> pool_reuses_{0};
  std::atomic<std::size_t> steals_{0};
  std::atomic<std::size_t> coalesced_{0};
  std::atomic<std::size_t> shed_{0};
  std::atomic<std::size_t> rejected_{0};
};

}  // namespace bismo::api::detail

#endif  // BISMO_API_SERVICE_HPP

// Asynchronous job observation for the bismo::api facade.
//
// `Session::submit` enqueues work and returns immediately with a JobHandle:
// a cheap, copyable, thread-safe view of one job's lifecycle.  The handle
// exposes the job's status (queued -> running -> done/failed/cancelled),
// blocking and non-blocking result access, and per-job cancellation that
// never affects sibling jobs.  Alongside the handle, every job emits a
// JobEvent stream (enqueued -> started -> step* -> finished) to the
// session-wide `Session::Options::on_event` observer and the per-job
// `SubmitOptions::on_event` observer; step progress is the kStep event.
//
// Lifetime: handles keep the job's state alive independently of the
// session, and the session finalizes every outstanding job on destruction
// (as cancelled), so `status`/`wait`/`try_result`/`cancel` on a handle
// remain safe even after the session is gone.
#ifndef BISMO_API_JOB_HANDLE_HPP
#define BISMO_API_JOB_HANDLE_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "api/job_result.hpp"
#include "api/job_spec.hpp"
#include "core/run_control.hpp"
#include "core/trace.hpp"

namespace bismo::api {

/// Lifecycle of one submitted job.
enum class JobStatus {
  kQueued,     ///< waiting in the scheduler queue
  kRunning,    ///< executing on a scheduler lane
  kDone,       ///< finished successfully
  kFailed,     ///< finished with JobResult::error set
  kCancelled,  ///< cancelled while queued, or stopped mid-run
};

/// True for the three terminal states.
constexpr bool is_terminal(JobStatus status) noexcept {
  return status == JobStatus::kDone || status == JobStatus::kFailed ||
         status == JobStatus::kCancelled;
}

/// Short lower-case label ("queued", "running", "done", ...).
const char* to_string(JobStatus status) noexcept;

/// One entry of a job's event stream.
struct JobEvent {
  enum class Kind {
    kEnqueued,  ///< accepted by the scheduler (submit returned a handle)
    kStarted,   ///< a lane picked the job up
    kStep,      ///< one optimizer step recorded
    kFinished,  ///< reached a terminal status; the result is available
  };

  Kind kind = Kind::kEnqueued;
  std::uint64_t job_id = 0;      ///< session-unique id (JobHandle::id())
  std::string job_name;          ///< JobSpec::display_name()
  std::string method;            ///< human-readable method name
  JobStatus status = JobStatus::kQueued;  ///< status after this event
  std::size_t batch_index = 0;   ///< position in the submitting batch
  std::size_t batch_count = 1;   ///< size of the submitting batch
  StepRecord step{};             ///< kStep: the step just recorded
  int planned_steps = 0;         ///< kStep: expected trace length
  double queued_ms = 0.0;        ///< kStarted/kFinished: time spent queued
  double run_ms = 0.0;           ///< kFinished: time spent executing
};

/// Observer over a job event feed.  Calls are serialized by the session
/// (events originate on lane threads); keep them cheap, never block on a
/// handle of the same session from inside one.
using JobEventObserver = std::function<void(const JobEvent&)>;

/// Admission policy applied by `Session::submit` when the dispatch queue
/// is at capacity (see Session::Options::queue_capacity).
enum class QueuePolicy {
  /// Block the submitting thread until the queue has room (default --
  /// with the default effectively-unbounded capacity this never blocks).
  kBlock,
  /// Fail fast: the handle finalizes immediately as kFailed with
  /// JobResult::error naming the full queue.
  kReject,
  /// Make room by cancelling the oldest queued job (it finalizes as
  /// kCancelled with JobResult::shed set); falls back to accepting once
  /// room exists.
  kShedOldest,
};

/// Per-submission scheduling options.
struct SubmitOptions {
  /// What submit does when the dispatch queue is full.
  QueuePolicy queue_policy = QueuePolicy::kBlock;
  /// Non-zero opts this job into small-job coalescing: when a lane pops
  /// it under load, queued neighbours carrying the SAME key are batched
  /// into the one dispatch, sharing its leased workspace.  Use
  /// JobSpec::coalesce_fingerprint() so only same-shape jobs share a key.
  /// Per-job events, results, cancellation and ordering are unaffected.
  std::uint64_t coalesce_key = 0;
  /// Expected number of sibling jobs in flight, used to pre-shard the
  /// session's parallel width before the siblings actually start (a batch
  /// of k jobs submits with lanes_hint = k so the first job does not grab
  /// the full machine).  0 = derive from the live in-flight count only.
  std::size_t lanes_hint = 0;
  /// Per-job event feed (in addition to the session-wide observer).
  JobEventObserver on_event;
  /// Labeling of this job within its batch (surfaced in events;
  /// submit_batch fills these in).
  std::size_t batch_index = 0;
  std::size_t batch_count = 1;
  /// Locality group for distributed schedulers: jobs sharing the same
  /// non-zero hint prefer to land on the same worker (net::Dispatcher maps
  /// the hint onto its worker set; halo-neighbour tiles of one sweep share
  /// a hint so their coalesce fingerprints stay effective per worker).
  /// In-process sessions ignore it.  0 = no preference.
  std::uint64_t placement_hint = 0;
};

namespace detail {

struct JobState;

/// Cancellation sink behind a ServiceGate.  The in-process JobService and
/// the remote net::Dispatcher both implement it, so JobHandle::cancel
/// routes identically whether the job runs locally or on a worker.
class JobRouter {
 public:
  virtual void cancel_job(const std::shared_ptr<JobState>& state) = 0;

 protected:
  ~JobRouter() = default;
};

/// Liveness gate between JobHandles and their scheduler: shared by the
/// router (JobService or net::Dispatcher) and every job it created.  The
/// router nulls `service` as the last act of its destructor (with all jobs
/// already finalized), so a handle can safely route `cancel()` through the
/// gate no matter which thread is tearing the session down.  Recursive: an
/// observer invoked under the gate (a finished event from a gated cancel)
/// may cancel another handle of the same session.
struct ServiceGate {
  std::recursive_mutex mutex;
  JobRouter* service = nullptr;
};

/// Shared state of one submitted job.  Created by new_job_state (from
/// JobService::submit or net::Dispatcher::submit) and referenced by the
/// scheduler, the executing lane, and every JobHandle copy.
struct JobState {
  using Clock = std::chrono::steady_clock;

  std::uint64_t id = 0;        ///< session-unique, also the FIFO sequence
  JobSpec spec;
  SubmitOptions options;
  std::string name;            ///< spec.display_name(), precomputed
  std::string method_name;     ///< to_string(spec.method)
  std::string clip_desc;       ///< spec.clip.describe()

  std::shared_ptr<ServiceGate> gate;  ///< scheduler liveness (see above)
  CancelToken cancel;             ///< this job's private token
  std::atomic<JobStatus> status{JobStatus::kQueued};
  /// Set under the service registry lock by a session-wide cancel; the
  /// session token re-arms when the last doomed job finalizes.
  bool doomed = false;
  /// Service cancel generation at submission: the session-wide drain
  /// token is composed into this job's RunControl only when a cancel was
  /// requested AFTER submission (jobs submitted during a still-settling
  /// drain run normally).
  std::uint64_t submit_generation = 0;

  Clock::time_point submitted_at{};
  Clock::time_point started_at{};

  /// Queue depth observed at submission (surfaced in JobResult JSON so
  /// overload shows up next to the latency it caused).
  std::size_t queue_depth_at_submit = 0;
  /// Set by the executing lane when this job shares a coalesced dispatch:
  /// the session then parks its workspace lease for the next member
  /// instead of a cache round-trip.  Only the owning lane touches it.
  bool coalesced_dispatch = false;

  /// First-finalizer-wins guard (a per-job cancel can race the lane).
  std::atomic<bool> finalized{false};

  mutable std::mutex mutex;       ///< guards result/finished
  mutable std::condition_variable cv;
  JobResult result;
  bool finished = false;
};

}  // namespace detail

class JobHandle;

namespace detail {
JobHandle make_handle(std::shared_ptr<JobState> state);
}  // namespace detail

/// Copyable, thread-safe view of one submitted job.
class JobHandle {
 public:
  /// Invalid handle (valid() == false); assign from Session::submit.
  JobHandle() = default;

  /// False for default-constructed handles.
  bool valid() const noexcept { return state_ != nullptr; }

  /// Session-unique job id (0 for invalid handles).
  std::uint64_t id() const noexcept;

  /// The job's display name ("" for invalid handles).
  const std::string& name() const noexcept;

  /// Current lifecycle status (kCancelled for invalid handles).
  JobStatus status() const noexcept;

  /// Block until the job reaches a terminal status and return its result.
  /// The reference stays valid while any handle copy is alive.
  const JobResult& wait() const;

  /// Wait up to `seconds`; true when the job finished in time.
  bool wait_for(double seconds) const;

  /// The result when terminal, nullptr while queued/running.  Never blocks.
  const JobResult* try_result() const;

  /// Cancel this job only: a queued job finalizes immediately as
  /// kCancelled (empty trace); a running job stops cooperatively at its
  /// next step boundary and keeps the partial trace.  Sibling jobs are
  /// untouched.  No-op on terminal jobs and invalid handles.
  void cancel() const;

 private:
  friend JobHandle detail::make_handle(std::shared_ptr<detail::JobState>);
  explicit JobHandle(std::shared_ptr<detail::JobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::JobState> state_;
};

namespace detail {

/// Wrap shared job state in a handle.
inline JobHandle make_handle(std::shared_ptr<JobState> state) {
  return JobHandle(std::move(state));
}

// The JobState lifecycle, shared by every scheduler (JobService and
// net::Dispatcher).  A scheduler builds the state with new_job_state,
// emits events built by make_event, and finalizes each job exactly once
// (its own first-finalizer guard) by publishing the terminal result.

/// Milliseconds elapsed from `from` to `to`.
double ms_between(JobState::Clock::time_point from,
                  JobState::Clock::time_point to);

/// A fresh queued job: id, precomputed names, spec, options, gate and
/// submission time.  Scheduler-specific fields are left to the caller.
std::shared_ptr<JobState> new_job_state(std::uint64_t id, JobSpec spec,
                                        SubmitOptions options,
                                        std::shared_ptr<ServiceGate> gate);

/// An event of `kind` for `state`, labelled with its current status.
JobEvent make_event(const JobState& state, JobEvent::Kind kind);

/// The terminal result of a job that never executed (cancelled).
JobResult drained_result(const JobState& state);

/// The terminal status an executed result maps to: failed when it carries
/// an error, cancelled when the run stopped early, done otherwise.
JobStatus terminal_status(const JobResult& result);

/// Publish a terminal result: store `status`, set the result and
/// `finished` under state.mutex and wake every waiter.  Returns the
/// finished event, which the caller delivers to its observers.
JobEvent publish_result(JobState& state, JobResult result, JobStatus status);

}  // namespace detail

}  // namespace bismo::api

#endif  // BISMO_API_JOB_HANDLE_HPP

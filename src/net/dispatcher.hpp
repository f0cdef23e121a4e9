// net::Dispatcher -- fault-tolerant client-side cluster scheduler.
//
// A Dispatcher implements the same submit -> JobHandle serving contract as
// api::Session (both are api::JobSubmitter implementations; handles route
// cancel through the shared detail::ServiceGate), but executes jobs by
// fanning them over N net::Worker endpoints:
//
//  * one manager thread per worker owns its connection: connect + hello
//    validation (protocol version, wire self-check), then a read loop
//    relaying events and completing results;
//  * a bounded per-worker in-flight window provides backpressure -- excess
//    jobs wait in a FIFO pending queue;
//  * liveness is heartbeat-based: SO_RCVTIMEO arms a watchdog, and a
//    worker that stays silent past the timeout is declared dead;
//  * jobs open on a dead worker are resubmitted elsewhere automatically
//    (results stay bitwise identical -- the half-run attempt is discarded
//    on the worker); JobResult::retries records how often that happened;
//  * reconnects back off exponentially (bounded), so a worker that comes
//    back is re-adopted without hammering a dead address;
//  * SubmitOptions::placement_hint maps jobs onto a preferred worker
//    (hint % workers) while that worker is alive -- the locality hook
//    shard::TileScheduler uses to keep halo-neighbour tiles together.
#ifndef BISMO_NET_DISPATCHER_HPP
#define BISMO_NET_DISPATCHER_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/session.hpp"
#include "api/submitter.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace bismo::net {

/// One worker address.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Parse "host:port,host:port,..." (also accepts bare ":port" and "port"
/// as loopback shorthands).  Throws std::invalid_argument on bad input.
std::vector<Endpoint> parse_endpoints(const std::string& spec);

struct DispatcherOptions {
  std::vector<Endpoint> workers;
  /// Jobs in flight per worker before new ones wait in the pending queue.
  std::size_t window = 4;
  /// A worker silent for longer than this is declared dead and its jobs
  /// are retried elsewhere.  Workers heartbeat every ~200 ms by default,
  /// so seconds-scale timeouts tolerate heavy event bursts.
  double heartbeat_timeout_seconds = 3.0;
  /// Dispatcher-wide event feed (same semantics as Session's on_event).
  api::JobEventObserver on_event;
};

/// Client-side cluster scheduler; see file comment.
class Dispatcher final : public api::JobSubmitter,
                         private api::detail::JobRouter {
 public:
  /// Liveness + throughput counters.
  struct Stats {
    std::size_t jobs_submitted = 0;
    std::size_t jobs_completed = 0;  ///< finalized with a worker result
    std::size_t jobs_retried = 0;    ///< resubmissions after a lost worker
    std::size_t workers_alive = 0;   ///< connected + hello-validated now
    std::size_t workers_total = 0;
    std::size_t reconnects = 0;      ///< successful (re)connections
  };

  /// Last known view of one worker.
  struct WorkerInfo {
    Endpoint endpoint;
    bool alive = false;
    std::size_t width = 1;      ///< from the hello
    std::string name;           ///< WorkerOptions::name from the hello
    std::size_t in_flight = 0;  ///< jobs currently assigned to it
    /// Most recent heartbeat gauges (unset until the first heartbeat).
    std::optional<api::Session::Stats> last_stats;
  };

  /// Starts one manager thread per endpoint; connections are established
  /// asynchronously (submit before any worker is up just queues).
  explicit Dispatcher(DispatcherOptions options);

  /// Cancels every pending/in-flight job and joins the manager threads;
  /// outstanding JobHandles stay safe to query afterwards.
  ~Dispatcher() override;

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Enqueue one job for remote execution; returns immediately.  The
  /// handle behaves exactly like a Session handle (wait / try_result /
  /// cancel).
  api::JobHandle submit(api::JobSpec spec,
                        api::SubmitOptions options = {}) override;

  /// Sum of live worker widths (>= 1; worker count while disconnected).
  std::size_t parallel_width() const noexcept override;

  /// Synchronous batch: submit everything, wait in order.  Per-worker
  /// windows provide the pacing that Session::run_batch gets from its
  /// sliding window; results come back in spec order, bitwise identical
  /// to an in-process run on the same FFT backend.
  std::vector<api::JobResult> run_batch(const std::vector<api::JobSpec>& specs);

  /// Block until at least `count` workers are alive or `timeout_seconds`
  /// elapsed; returns the number alive.  Startup convenience.
  std::size_t wait_for_workers(std::size_t count, double timeout_seconds);

  Stats stats() const;
  std::vector<WorkerInfo> workers() const;

 private:
  struct RemoteJob {
    std::shared_ptr<api::detail::JobState> state;
    std::size_t retries = 0;
    bool cancel_requested = false;
  };
  using RemoteJobPtr = std::shared_ptr<RemoteJob>;

  struct WorkerLink {
    std::size_t index = 0;
    Endpoint endpoint;
    Socket socket;                  ///< valid only while connected
    std::mutex write_mutex;         ///< serializes frames to this worker
    bool connected = false;         ///< guarded by mutex_
    std::size_t width = 1;
    std::string name;
    std::optional<api::Session::Stats> last_stats;
    std::unordered_map<std::uint64_t, RemoteJobPtr> in_flight;
    std::thread manager;
  };

  void cancel_job(
      const std::shared_ptr<api::detail::JobState>& state) override;

  void manager_main(const std::shared_ptr<WorkerLink>& link);
  /// One connection's lifetime: hello + read loop.  Returns when the
  /// connection died (caller reconnects after backoff).
  void serve_connection(const std::shared_ptr<WorkerLink>& link);
  /// Requeue (or finalize) everything in flight on a dying connection and
  /// mark the worker dead.  Idempotent per connection.
  void handle_disconnect(const std::shared_ptr<WorkerLink>& link);
  /// Assign pending jobs to workers with window room; sends outside the
  /// dispatcher lock.  Safe to call from any thread.
  void pump();
  bool eligible_locked(const RemoteJob& job, std::size_t worker) const;
  void send_submit(const std::shared_ptr<WorkerLink>& link,
                   const RemoteJobPtr& job);

  void handle_event_frame(const std::shared_ptr<WorkerLink>& link,
                          const std::vector<std::uint8_t>& payload);
  void handle_result_frame(const std::shared_ptr<WorkerLink>& link,
                           const std::vector<std::uint8_t>& payload);

  /// First finalizer only: publish the result (publish_result) and emit
  /// the finished event.  Never called with mutex_ held.
  void finalize_job(const std::shared_ptr<api::detail::JobState>& state,
                    api::JobResult result, api::JobStatus status);

  DispatcherOptions options_;
  /// Serialized observer delivery; an observer may cancel handles of this
  /// dispatcher (the re-entrant finished event queues behind it).
  api::detail::EventFeed events_;
  std::shared_ptr<api::detail::ServiceGate> gate_;

  mutable std::mutex mutex_;  ///< pending_, in_flight maps, link liveness
  std::condition_variable cv_;  ///< backoff sleeps + wait_for_workers
  std::deque<RemoteJobPtr> pending_;
  std::vector<std::shared_ptr<WorkerLink>> links_;
  bool stopping_ = false;

  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::size_t> submitted_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> retried_{0};
  std::atomic<std::size_t> reconnects_{0};
};

}  // namespace bismo::net

#endif  // BISMO_NET_DISPATCHER_HPP

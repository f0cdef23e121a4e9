// net::Worker -- one process's api::Session served over TCP.
//
// A Worker binds a loopback listener and serves its local Session to any
// number of client connections.  Per connection, a reader thread decodes
// frames (kSubmit -> Session::submit with a per-job observer that relays
// kStarted/kStep events back as kEvent frames; kCancel -> JobHandle
// cancel) and a reporter thread ships terminal results as kResult frames
// in completion order, interleaved with kHeartbeat frames carrying live
// Session::stats() gauges whenever the connection has been quiet for one
// heartbeat interval.  Job identity on the wire is the CLIENT's job id
// (see protocol.hpp).
//
// Failure semantics: when a connection dies (EOF, corrupt frame, write
// error), every job it still has open is cancelled on the local session
// -- the dispatcher owns retry, and a half-run job's work is discarded so
// the retried run's results stay bitwise identical to a clean run.
// `kill()` hard-closes the listener and every live connection without a
// goodbye: the process-local fault-injection hook (tests) matching what a
// SIGKILL'd worker process looks like to its clients.
#ifndef BISMO_NET_WORKER_HPP
#define BISMO_NET_WORKER_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/session.hpp"
#include "net/socket.hpp"

namespace bismo::net {

struct WorkerOptions {
  std::uint16_t port = 0;     ///< 0 = ephemeral (read back via port())
  std::size_t threads = 1;    ///< session width: cluster workers default
                              ///< narrow so co-located workers scale by
                              ///< process count, not thread oversubscription
  std::size_t lanes = 0;      ///< scheduler lanes (0 = threads)
  std::size_t queue_capacity = 0;
  double heartbeat_seconds = 0.2;  ///< max quiet time between frames
  std::string name = "worker";
  bool verbose = false;  ///< connection lifecycle logging to stderr
};

class Worker {
 public:
  /// Binds and listens immediately (throws WireError on bind failure);
  /// serving starts with serve()/start().
  explicit Worker(WorkerOptions options);

  /// stop()s and joins everything.
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// The bound port (the chosen one when options.port was 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Blocking accept loop; returns after stop()/kill().
  void serve();

  /// serve() on a background thread.
  void start();

  /// Orderly shutdown: goodbye frames, close everything, join threads.
  void stop();

  /// Fault injection: hard-close the listener and every connection with
  /// no goodbye, as a killed process would.  The local session keeps
  /// running (its in-flight jobs are cancelled); the object stays
  /// destructible.
  void kill();

  /// The served session (tests inspect stats()).
  api::Session& session() noexcept { return *session_; }

  /// Results successfully shipped to clients.
  std::size_t jobs_served() const noexcept {
    return jobs_served_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    Socket socket;
    std::mutex write_mutex;  ///< one frame at a time on the socket
    std::mutex mutex;        ///< guards handles / completed / closing
    std::condition_variable cv;
    std::unordered_map<std::uint64_t, api::JobHandle> handles;
    std::deque<std::uint64_t> completed;  ///< finished ids awaiting report
    bool closing = false;
    std::thread reader;
    std::thread reporter;
  };

  static api::Session::Options session_options(const WorkerOptions& options);

  void reader_main(const std::shared_ptr<Connection>& conn);
  void reporter_main(const std::shared_ptr<Connection>& conn);
  void handle_submit(const std::shared_ptr<Connection>& conn,
                     const std::vector<std::uint8_t>& payload);
  /// Mark closing, cancel every open job of the connection, wake the
  /// reporter.  Idempotent.
  void teardown(const std::shared_ptr<Connection>& conn);
  void close_all(bool orderly);

  WorkerOptions options_;
  std::unique_ptr<api::Session> session_;
  Socket listener_;
  std::uint16_t port_ = 0;

  std::mutex conns_mutex_;
  std::vector<std::shared_ptr<Connection>> conns_;
  bool stopping_ = false;

  std::thread accept_thread_;
  std::atomic<std::size_t> jobs_served_{0};
};

}  // namespace bismo::net

#endif  // BISMO_NET_WORKER_HPP

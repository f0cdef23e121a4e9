#include "net/worker.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <utility>

#include "fft/kernels/kernel.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"

namespace bismo::net {
namespace {

/// Encode + write one frame under the connection's write mutex, swallowing
/// transport errors: senders on lane threads must never throw into the
/// session's event drainer, and a dead peer is detected by the reader.
template <typename Fn>
bool try_send(std::mutex& write_mutex, const Socket& socket, MsgType type,
              Fn&& encode) {
  try {
    WireWriter w;
    encode(w);
    std::lock_guard<std::mutex> lock(write_mutex);
    write_frame(socket.fd(), type, w.bytes());
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

api::Session::Options Worker::session_options(const WorkerOptions& options) {
  api::Session::Options so;
  so.threads = options.threads;
  so.scheduler_lanes = options.lanes;
  so.queue_capacity = options.queue_capacity;
  so.coalesce_limit = options.coalesce_limit;
  return so;
}

Worker::Worker(WorkerOptions options)
    : options_(std::move(options)),
      session_(std::make_unique<api::Session>(session_options(options_))) {
  port_ = options_.port;
  listener_ = listen_loopback(&port_);
  if (options_.verbose) {
    // bismo-lint: allow(no-io) opt-in server-process diagnostics on stderr
    std::fprintf(stderr, "[%s] listening on 127.0.0.1:%u\n",
                 options_.name.c_str(), static_cast<unsigned>(port_));
  }
}

Worker::~Worker() { stop(); }

void Worker::serve() {
  for (;;) {
    Socket accepted = accept_connection(listener_);
    if (!accepted.valid()) return;
    std::lock_guard<std::mutex> lock(conns_mutex_);
    if (stopping_) return;
    auto conn = std::make_shared<Connection>();
    conn->socket = std::move(accepted);
    conn->reader = std::thread([this, conn] { reader_main(conn); });
    conn->reporter = std::thread([this, conn] { reporter_main(conn); });
    conns_.push_back(conn);
  }
}

void Worker::start() {
  accept_thread_ = std::thread([this] { serve(); });
}

void Worker::stop() {
  close_all(/*orderly=*/true);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns = conns_;
  }
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->reporter.joinable()) conn->reporter.join();
  }
}

void Worker::kill() {
  close_all(/*orderly=*/false);
  if (accept_thread_.joinable()) accept_thread_.join();
}

void Worker::close_all(bool orderly) {
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    stopping_ = true;
    conns = conns_;
  }
  listener_.shutdown_both();
  for (const auto& conn : conns) {
    if (orderly) {
      try_send(conn->write_mutex, conn->socket, MsgType::kGoodbye,
               [](WireWriter&) {});
    }
    teardown(conn);
  }
}

void Worker::reader_main(const std::shared_ptr<Connection>& conn) {
  try {
    HelloMsg hello;
    hello.version = kProtocolVersion;
    hello.name = options_.name;
    hello.width = session_->parallel_width();
    hello.fft_backend = fft::backend_name();
    hello.self_check_ok = wire_self_check();
    if (!try_send(conn->write_mutex, conn->socket, MsgType::kHello,
                  [&](WireWriter& w) { encode_hello(w, hello); })) {
      teardown(conn);
      return;
    }

    Frame frame;
    while (read_frame(conn->socket.fd(), &frame)) {
      switch (frame.type) {
        case MsgType::kSubmit:
          handle_submit(conn, frame.payload);
          break;
        case MsgType::kCancel: {
          WireReader r(frame.payload);
          const CancelMsg msg = decode_cancel(r);
          api::JobHandle handle;
          {
            std::lock_guard<std::mutex> lock(conn->mutex);
            auto it = conn->handles.find(msg.job_id);
            if (it != conn->handles.end()) handle = it->second;
          }
          // Frames are processed in order, so a cancel always finds its
          // submit already registered; a miss means the job already
          // reported its result.
          if (handle.valid()) handle.cancel();
          break;
        }
        case MsgType::kGoodbye:
          teardown(conn);
          return;
        default:
          break;  // ignore unexpected-but-well-formed frames
      }
    }
  } catch (const std::exception& e) {
    if (options_.verbose) {
      // bismo-lint: allow(no-io) opt-in server-process diagnostics on stderr
      std::fprintf(stderr, "[%s] connection error: %s\n",
                   options_.name.c_str(), e.what());
    }
  }
  teardown(conn);
}

void Worker::handle_submit(const std::shared_ptr<Connection>& conn,
                           const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  SubmitMsg msg = decode_submit(r);
  const std::uint64_t remote_id = msg.job_id;

  api::SubmitOptions opts;
  opts.coalesce_key = msg.coalesce_key;
  opts.lanes_hint = static_cast<std::size_t>(msg.lanes_hint);
  opts.batch_index = static_cast<std::size_t>(msg.batch_index);
  opts.batch_count = static_cast<std::size_t>(msg.batch_count);
  std::shared_ptr<Connection> c = conn;
  opts.on_event = [this, c, remote_id](const api::JobEvent& event) {
    switch (event.kind) {
      case api::JobEvent::Kind::kEnqueued:
        break;  // the dispatcher emits its own enqueued event locally
      case api::JobEvent::Kind::kStarted:
      case api::JobEvent::Kind::kStep: {
        EventMsg em;
        em.job_id = remote_id;
        em.event = event;
        em.event.job_id = remote_id;
        try_send(c->write_mutex, c->socket, MsgType::kEvent,
                 [&](WireWriter& w) { encode_event_msg(w, em); });
        break;
      }
      case api::JobEvent::Kind::kFinished: {
        // The result is published before the finished event fires; hand
        // delivery to the reporter thread (never block a lane on I/O
        // ordering, and keep result frames serialized in finish order).
        {
          std::lock_guard<std::mutex> lock(c->mutex);
          c->completed.push_back(remote_id);
        }
        c->cv.notify_all();
        break;
      }
    }
  };

  api::JobHandle handle = session_->submit(std::move(msg.spec),
                                           std::move(opts));
  bool late = false;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closing) {
      late = true;  // teardown already ran and could not see this handle
    } else {
      conn->handles.emplace(remote_id, handle);
    }
  }
  if (late) {
    handle.cancel();
    return;
  }
  conn->cv.notify_all();  // reporter may already hold the finished id
}

void Worker::reporter_main(const std::shared_ptr<Connection>& conn) {
  const auto interval = std::chrono::duration<double>(
      options_.heartbeat_seconds > 0.0 ? options_.heartbeat_seconds : 0.2);
  std::unique_lock<std::mutex> lock(conn->mutex);
  for (;;) {
    if (conn->closing) {
      // Drop undelivered results: the peer is gone and the dispatcher
      // will retry the jobs elsewhere.
      conn->completed.clear();
      return;
    }
    if (conn->completed.empty()) {
      if (conn->cv.wait_for(lock, interval) == std::cv_status::timeout &&
          !conn->closing) {
        HeartbeatMsg hb;
        hb.jobs_in_flight = conn->handles.size();
        lock.unlock();
        hb.stats = session_->stats();
        try_send(conn->write_mutex, conn->socket, MsgType::kHeartbeat,
                 [&](WireWriter& w) { encode_heartbeat(w, hb); });
        lock.lock();
      }
      continue;
    }
    const std::uint64_t id = conn->completed.front();
    auto it = conn->handles.find(id);
    if (it == conn->handles.end()) {
      // The finished event outran handle registration in handle_submit;
      // wait for the submit path to store the handle.
      conn->cv.wait_for(lock, interval);
      continue;
    }
    conn->completed.pop_front();
    api::JobHandle handle = it->second;
    conn->handles.erase(it);
    lock.unlock();

    ResultMsg msg;
    msg.job_id = id;
    msg.result = handle.wait();  // already terminal: returns immediately
    // Counted before the send, so a client already holding the result
    // never reads a stale count; a failed send takes it back.
    jobs_served_.fetch_add(1, std::memory_order_relaxed);
    if (!try_send(conn->write_mutex, conn->socket, MsgType::kResult,
                  [&](WireWriter& w) { encode_result_msg(w, msg); })) {
      jobs_served_.fetch_sub(1, std::memory_order_relaxed);
    }
    lock.lock();
  }
}

void Worker::teardown(const std::shared_ptr<Connection>& conn) {
  std::vector<api::JobHandle> open;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closing) return;
    conn->closing = true;
    open.reserve(conn->handles.size());
    for (const auto& entry : conn->handles) open.push_back(entry.second);
    conn->handles.clear();
  }
  conn->cv.notify_all();
  conn->socket.shutdown_both();
  if (options_.verbose && !open.empty()) {
    // bismo-lint: allow(no-io) opt-in server-process diagnostics on stderr
    std::fprintf(stderr, "[%s] connection lost; cancelling %zu open jobs\n",
                 options_.name.c_str(), open.size());
  }
  // Cancel outside the connection lock: finalizing queued jobs emits
  // finished events, whose observers take the lock to record completion.
  for (const api::JobHandle& handle : open) handle.cancel();
}

}  // namespace bismo::net

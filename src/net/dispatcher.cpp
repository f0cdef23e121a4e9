#include "net/dispatcher.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "core/runner.hpp"
#include "net/frame.hpp"

namespace bismo::net {
namespace {

using api::JobEvent;
using api::JobStatus;
using api::detail::drained_result;
using api::detail::JobState;
using api::detail::make_event;
using api::detail::ms_between;
using Clock = JobState::Clock;

/// Reconnect backoff: initial delay, doubled per failure up to the cap.
constexpr double kBackoffInitialSeconds = 0.025;
constexpr double kBackoffMaxSeconds = 1.0;
/// A job that loses its worker is resubmitted at most this many times
/// before finalizing as failed.
constexpr std::size_t kMaxJobRetries = 8;

/// Encode + write one frame under the link's write mutex, reporting
/// transport failure instead of throwing (the caller decides whether a
/// failed write means a dead worker).
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

std::vector<Endpoint> parse_endpoints(const std::string& spec) {
  std::vector<Endpoint> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item =
        comma == std::string::npos ? spec.substr(pos)
                                   : spec.substr(pos, comma - pos);
    if (item.empty()) {
      throw std::invalid_argument("net: empty endpoint in \"" + spec + "\"");
    }
    Endpoint ep;
    const std::size_t colon = item.rfind(':');
    std::string port_str = item;
    if (colon != std::string::npos) {
      if (colon > 0) ep.host = item.substr(0, colon);
      port_str = item.substr(colon + 1);
    }
    if (port_str.empty() ||
        port_str.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument("net: bad endpoint \"" + item + "\"");
    }
    const unsigned long port = std::stoul(port_str);
    if (port == 0 || port > 65535) {
      throw std::invalid_argument("net: port out of range in \"" + item +
                                  "\"");
    }
    ep.port = static_cast<std::uint16_t>(port);
    out.push_back(std::move(ep));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) {
    throw std::invalid_argument("net: no worker endpoints in \"" + spec +
                                "\"");
  }
  return out;
}

Dispatcher::Dispatcher(DispatcherOptions options)
    : options_(std::move(options)),
      gate_(std::make_shared<api::detail::ServiceGate>()) {
  if (options_.workers.empty()) {
    throw std::invalid_argument(
        "net: dispatcher needs at least one worker endpoint");
  }
  if (options_.window == 0) options_.window = 1;
  {
    std::lock_guard<std::recursive_mutex> lock(gate_->mutex);
    gate_->service = this;
  }
  links_.reserve(options_.workers.size());
  for (std::size_t i = 0; i < options_.workers.size(); ++i) {
    auto link = std::make_shared<WorkerLink>();
    link->index = i;
    link->endpoint = options_.workers[i];
    links_.push_back(std::move(link));
  }
  // Spawn managers only after links_ is fully built: pump() iterates it.
  for (const auto& link : links_) {
    link->manager = std::thread([this, link] { manager_main(link); });
  }
}

Dispatcher::~Dispatcher() {
  std::vector<RemoteJobPtr> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    doomed.assign(pending_.begin(), pending_.end());
    pending_.clear();
    for (const auto& link : links_) {
      for (const auto& entry : link->in_flight) doomed.push_back(entry.second);
      link->in_flight.clear();
      link->socket.shutdown_both();
    }
  }
  cv_.notify_all();
  for (const auto& link : links_) {
    if (link->manager.joinable()) link->manager.join();
  }
  for (const RemoteJobPtr& job : doomed) {
    finalize_job(job->state, drained_result(*job->state),
                 JobStatus::kCancelled);
  }
  // Close the JobHandle::cancel gate last, with every job finalized.
  std::lock_guard<std::recursive_mutex> lock(gate_->mutex);
  gate_->service = nullptr;
}

api::JobHandle Dispatcher::submit(api::JobSpec spec,
                                  api::SubmitOptions options) {
  std::shared_ptr<JobState> state = api::detail::new_job_state(
      next_id_.fetch_add(1, std::memory_order_relaxed), std::move(spec),
      std::move(options), gate_);
  submitted_.fetch_add(1, std::memory_order_relaxed);

  auto job = std::make_shared<RemoteJob>();
  job->state = state;

  // Emit BEFORE registering, mirroring JobService::submit: once the job
  // is visible a racing finalizer may emit finished, and the finished
  // event must never precede the enqueued event.
  emit_event(make_event(*state, JobEvent::Kind::kEnqueued),
             state->options.on_event);

  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      rejected = true;
    } else {
      state->queue_depth_at_submit = pending_.size();
      pending_.push_back(job);
    }
  }
  if (rejected) {
    finalize_job(state, drained_result(*state), JobStatus::kCancelled);
    return api::detail::make_handle(std::move(state));
  }
  pump();
  return api::detail::make_handle(std::move(state));
}

std::size_t Dispatcher::parallel_width() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t width = 0;
  for (const auto& link : links_) {
    if (link->connected) width += std::max<std::size_t>(1, link->width);
  }
  return width > 0 ? width : links_.size();
}

std::vector<api::JobResult> Dispatcher::run_batch(
    const std::vector<api::JobSpec>& specs) {
  std::vector<api::JobHandle> handles = submit_batch(specs);
  std::vector<api::JobResult> results;
  results.reserve(handles.size());
  for (const api::JobHandle& handle : handles) results.push_back(handle.wait());
  return results;
}

std::size_t Dispatcher::wait_for_workers(std::size_t count,
                                         double timeout_seconds) {
  const auto alive = [this] {
    std::size_t n = 0;
    for (const auto& link : links_) {
      if (link->connected) ++n;
    }
    return n;
  };
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
               [&] { return stopping_ || alive() >= count; });
  return alive();
}

Dispatcher::Stats Dispatcher::stats() const {
  Stats s;
  s.jobs_submitted = submitted_.load(std::memory_order_relaxed);
  s.jobs_completed = completed_.load(std::memory_order_relaxed);
  s.jobs_retried = retried_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  s.workers_total = links_.size();
  for (const auto& link : links_) {
    if (link->connected) ++s.workers_alive;
  }
  return s;
}

std::vector<Dispatcher::WorkerInfo> Dispatcher::workers() const {
  std::vector<WorkerInfo> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(links_.size());
  for (const auto& link : links_) {
    WorkerInfo info;
    info.endpoint = link->endpoint;
    info.alive = link->connected;
    info.width = link->width;
    info.name = link->name;
    info.in_flight = link->in_flight.size();
    info.last_stats = link->last_stats;
    out.push_back(std::move(info));
  }
  return out;
}

void Dispatcher::cancel_job(const std::shared_ptr<JobState>& state) {
  RemoteJobPtr queued;
  RemoteJobPtr assigned;
  std::shared_ptr<WorkerLink> owner;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if ((*it)->state == state) {
        queued = *it;
        pending_.erase(it);
        break;
      }
    }
    if (queued == nullptr) {
      for (const auto& link : links_) {
        auto it = link->in_flight.find(state->id);
        if (it != link->in_flight.end()) {
          assigned = it->second;
          owner = link;
          break;
        }
      }
      // Remember the intent: if the worker dies before confirming, the
      // orphan is finalized as cancelled instead of being retried.
      if (assigned != nullptr) assigned->cancel_requested = true;
    }
  }
  if (queued != nullptr) {
    JobStatus expected = JobStatus::kQueued;
    if (state->status.compare_exchange_strong(expected, JobStatus::kCancelled,
                                              std::memory_order_acq_rel)) {
      api::JobResult result = drained_result(*state);
      result.queued_ms = ms_between(state->submitted_at, Clock::now());
      finalize_job(state, std::move(result), JobStatus::kCancelled);
    }
    return;
  }
  if (assigned != nullptr && owner != nullptr) {
    // The worker cancels its local job; the terminal (cancelled) result
    // comes back as a normal kResult frame.  A failed write means the
    // connection is dying -- the disconnect path honours the intent.
    try_send(owner->write_mutex, owner->socket, MsgType::kCancel,
             [&](WireWriter& w) {
               encode_cancel(w, CancelMsg{state->id});
             });
  }
}

void Dispatcher::manager_main(const std::shared_ptr<WorkerLink>& link) {
  double backoff = kBackoffInitialSeconds;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
    bool had_session = false;
    try {
      serve_connection(link);
      had_session = true;  // hello succeeded and the stream ran for a while
    } catch (const std::exception&) {
      // connect/hello/read failure: fall through to backoff
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      had_session = had_session || link->connected;
    }
    handle_disconnect(link);
    if (had_session) backoff = kBackoffInitialSeconds;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (stopping_) return;
      cv_.wait_for(lock, std::chrono::duration<double>(backoff),
                   [this] { return stopping_; });
      if (stopping_) return;
    }
    backoff = std::min(backoff * 2.0, kBackoffMaxSeconds);
  }
}

void Dispatcher::serve_connection(const std::shared_ptr<WorkerLink>& link) {
  Socket sock = connect_to(link->endpoint.host, link->endpoint.port);
  set_recv_timeout(sock, options_.heartbeat_timeout_seconds);

  Frame frame;
  if (!read_frame(sock.fd(), &frame)) {
    throw WireError("net: worker closed before hello");
  }
  if (frame.type != MsgType::kHello) {
    throw WireError("net: expected hello, got " +
                    std::string(to_string(frame.type)));
  }
  WireReader r(frame.payload);
  const HelloMsg hello = decode_hello(r);
  if (hello.version != kProtocolVersion) {
    throw WireError("net: protocol version mismatch (worker " +
                    std::to_string(hello.version) + ", client " +
                    std::to_string(kProtocolVersion) + ")");
  }
  if (!hello.self_check_ok) {
    throw WireError("net: worker failed its wire self-check");
  }

  {
    // write_mutex too: a concurrent sender must never observe the socket
    // mid-replacement.
    std::scoped_lock lock(link->write_mutex, mutex_);
    if (stopping_) return;
    link->socket = std::move(sock);
    link->connected = true;
    link->width = static_cast<std::size_t>(hello.width);
    link->name = hello.name;
  }
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  cv_.notify_all();
  pump();

  for (;;) {
    Frame f;
    // SO_RCVTIMEO turns a silent worker into a WireError here: the
    // heartbeat watchdog.
    if (!read_frame(link->socket.fd(), &f)) return;
    switch (f.type) {
      case MsgType::kEvent:
        handle_event_frame(link, f.payload);
        break;
      case MsgType::kResult:
        handle_result_frame(link, f.payload);
        break;
      case MsgType::kHeartbeat: {
        WireReader hr(f.payload);
        const HeartbeatMsg hb = decode_heartbeat(hr);
        std::lock_guard<std::mutex> lock(mutex_);
        link->last_stats = hb.stats;
        break;
      }
      case MsgType::kGoodbye:
        return;
      default:
        break;  // tolerate well-formed frames we do not know
    }
  }
}

void Dispatcher::handle_disconnect(const std::shared_ptr<WorkerLink>& link) {
  std::vector<RemoteJobPtr> orphans;
  std::vector<RemoteJobPtr> cancelled;
  std::vector<RemoteJobPtr> exhausted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    link->connected = false;
    link->socket.shutdown_both();
    orphans.reserve(link->in_flight.size());
    for (const auto& entry : link->in_flight) orphans.push_back(entry.second);
    link->in_flight.clear();
    // Requeue in id order at the FRONT: retried jobs resume before newer
    // pending work, preserving batch pacing as closely as possible.
    std::sort(orphans.begin(), orphans.end(),
              [](const RemoteJobPtr& a, const RemoteJobPtr& b) {
                return a->state->id < b->state->id;
              });
    std::vector<RemoteJobPtr> requeue;
    for (const RemoteJobPtr& job : orphans) {
      if (job->state->finalized.load(std::memory_order_acquire)) continue;
      if (job->cancel_requested) {
        cancelled.push_back(job);
      } else if (job->retries >= kMaxJobRetries) {
        exhausted.push_back(job);
      } else {
        ++job->retries;
        retried_.fetch_add(1, std::memory_order_relaxed);
        requeue.push_back(job);
      }
    }
    pending_.insert(pending_.begin(), requeue.begin(), requeue.end());
  }
  cv_.notify_all();
  for (const RemoteJobPtr& job : cancelled) {
    api::JobResult result = drained_result(*job->state);
    result.retries = job->retries;
    finalize_job(job->state, std::move(result), JobStatus::kCancelled);
  }
  for (const RemoteJobPtr& job : exhausted) {
    api::JobResult result = drained_result(*job->state);
    result.error = "lost worker " + link->endpoint.host + ":" +
                   std::to_string(link->endpoint.port) + " after " +
                   std::to_string(job->retries) + " retries";
    result.run.cancelled = false;
    result.retries = job->retries;
    finalize_job(job->state, std::move(result), JobStatus::kFailed);
  }
  pump();
}

bool Dispatcher::eligible_locked(const RemoteJob& job,
                                 std::size_t worker) const {
  const std::uint64_t hint = job.state->options.placement_hint;
  if (hint == 0) return true;
  const std::size_t preferred =
      static_cast<std::size_t>(hint % links_.size());
  if (preferred == worker) return true;
  // Soft preference: only spill off the preferred worker when it is down
  // (retry correctness beats locality).
  return !links_[preferred]->connected;
}

void Dispatcher::pump() {
  for (;;) {
    std::shared_ptr<WorkerLink> target;
    RemoteJobPtr job;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (pending_.empty()) return;
      for (const auto& link : links_) {
        if (!link->connected) continue;
        if (link->in_flight.size() >= options_.window) continue;
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
          if (!eligible_locked(**it, link->index)) continue;
          job = *it;
          pending_.erase(it);
          break;
        }
        if (job != nullptr) {
          target = link;
          break;
        }
      }
      if (job == nullptr) return;  // no eligible (worker, job) pair
      if (!job->cancel_requested &&
          !job->state->finalized.load(std::memory_order_acquire)) {
        target->in_flight.emplace(job->state->id, job);
      } else {
        target = nullptr;  // finalize below instead of sending
      }
    }
    if (target == nullptr) {
      JobStatus expected = JobStatus::kQueued;
      if (job->state->status.compare_exchange_strong(
              expected, JobStatus::kCancelled, std::memory_order_acq_rel)) {
        api::JobResult result = drained_result(*job->state);
        result.retries = job->retries;
        finalize_job(job->state, std::move(result), JobStatus::kCancelled);
      }
      continue;
    }
    send_submit(target, job);
  }
}

void Dispatcher::send_submit(const std::shared_ptr<WorkerLink>& link,
                             const RemoteJobPtr& job) {
  SubmitMsg msg;
  msg.job_id = job->state->id;
  msg.spec = job->state->spec;
  msg.coalesce_key = job->state->options.coalesce_key;
  msg.lanes_hint = job->state->options.lanes_hint;
  msg.batch_index = job->state->options.batch_index;
  msg.batch_count = job->state->options.batch_count;
  if (!try_send(link->write_mutex, link->socket, MsgType::kSubmit,
                [&](WireWriter& w) { encode_submit(w, msg); })) {
    // The connection is dying; requeue the job (and everything else in
    // flight there) right away instead of waiting for the watchdog.
    handle_disconnect(link);
  }
}

void Dispatcher::handle_event_frame(const std::shared_ptr<WorkerLink>& link,
                                    const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  const EventMsg msg = decode_event_msg(r);
  std::shared_ptr<JobState> state;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = link->in_flight.find(msg.job_id);
    if (it == link->in_flight.end()) return;  // already completed/cancelled
    state = it->second->state;
  }
  if (msg.event.kind == JobEvent::Kind::kStarted) {
    state->started_at = Clock::now();
    JobStatus expected = JobStatus::kQueued;
    state->status.compare_exchange_strong(expected, JobStatus::kRunning,
                                          std::memory_order_acq_rel);
  }
  JobEvent event = msg.event;
  event.job_id = state->id;
  event.status = state->status.load(std::memory_order_acquire);
  emit_event(event, state->options.on_event);
}

void Dispatcher::handle_result_frame(const std::shared_ptr<WorkerLink>& link,
                                     const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  ResultMsg msg = decode_result_msg(r);
  RemoteJobPtr job;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = link->in_flight.find(msg.job_id);
    if (it == link->in_flight.end()) return;  // duplicate/late result
    job = it->second;
    link->in_flight.erase(it);
  }
  msg.result.retries = job->retries;
  const JobStatus status = api::detail::terminal_status(msg.result);
  // Count before finalizing: wait() returns the moment finalize_job
  // publishes, and stats() read right after must include this job.
  completed_.fetch_add(1, std::memory_order_relaxed);
  finalize_job(job->state, std::move(msg.result), status);
  pump();
}

void Dispatcher::finalize_job(const std::shared_ptr<JobState>& state,
                              api::JobResult result, JobStatus status) {
  if (state->finalized.exchange(true, std::memory_order_acq_rel)) {
    return;  // cancel/result/disconnect race: first finalizer wins
  }
  emit_event(api::detail::publish_result(*state, std::move(result), status),
             state->options.on_event);
}

void Dispatcher::emit_event(const JobEvent& event,
                            const api::JobEventObserver& per_job) {
  std::lock_guard<std::recursive_mutex> lock(event_mutex_);
  if (options_.on_event) options_.on_event(event);
  if (per_job) per_job(event);
}

}  // namespace bismo::net

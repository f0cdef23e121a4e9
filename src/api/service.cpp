#include "api/service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace bismo::api::detail {
namespace {

using Clock = JobState::Clock;

/// Cells per queue shard.  The queue has one shard per lane; idle lanes
/// steal from loaded neighbours.
constexpr std::size_t kShardCapacity = 1024;
/// Idle leased ThreadPools kept warm past which LRU eviction kicks in.
constexpr std::size_t kIdlePoolCap = 4;

std::size_t floor_pow2(std::size_t value) {
  std::size_t pow2 = 1;
  while (pow2 * 2 <= value) pow2 *= 2;
  return pow2;
}

}  // namespace

JobService::JobService(Config config)
    : width_(std::max<std::size_t>(1, config.width)),
      lane_limit_(config.lanes > 0 ? config.lanes
                                   : std::max<std::size_t>(1, config.width)),
      queue_capacity_(config.queue_capacity),
      coalesce_limit_(std::max<std::size_t>(1, config.coalesce_limit)),
      execute_(std::move(config.execute)),
      emit_(std::move(config.emit)),
      dispatch_end_(std::move(config.dispatch_end)),
      gate_(std::make_shared<ServiceGate>()),
      queue_(JobQueue::Config{lane_limit_, kShardCapacity}) {
  if (queue_capacity_ == 0) {
    queue_capacity_ = queue_.shard_count() * queue_.shard_capacity();
  }
  gate_->service = this;
}

JobService::~JobService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  // Stop running jobs at their next step boundary and finalize everything
  // still queued, so outstanding JobHandles unblock with cancelled results
  // instead of dangling.
  cancel_all();
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
  // entered before this and finishes against the still-live service
  // (this statement blocks on the gate), or enters after and sees null.
  std::lock_guard<std::recursive_mutex> lock(gate_->mutex);
  gate_->service = nullptr;
}

JobHandle JobService::submit(JobSpec spec, SubmitOptions options) {
  std::shared_ptr<JobState> state =
      new_job_state(next_id_.fetch_add(1, std::memory_order_relaxed),
                    std::move(spec), std::move(options), gate_);
  state->submit_generation =
      cancel_generation_.load(std::memory_order_acquire);
  state->queue_depth_at_submit = queue_.size();
  submitted_.fetch_add(1, std::memory_order_relaxed);

  // Emit BEFORE registering: once the job is in active_ a concurrent
  // cancel_all may finalize it, and the finished event must never precede
  // the enqueued event.
  if (emit_) emit_(make_event(*state, JobEvent::Kind::kEnqueued), *state);

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
    return make_handle(std::move(state));
  }

  admit(state);  // finalizes the job itself when admission fails
  return make_handle(std::move(state));
}

bool JobService::admit(const std::shared_ptr<JobState>& state) {
  for (;;) {
    if (state->status.load(std::memory_order_acquire) != JobStatus::kQueued) {
      return false;  // a concurrent drain/shutdown finalized it meanwhile
    }
    if (queue_.size() < queue_capacity_ && queue_.try_push(state)) {
      return true;
    }
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
        return false;
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

void JobService::spawn_lanes_locked() {
  while (lanes_.size() < lane_limit_ && lanes_.size() < active_.size()) {
    const std::size_t lane = lanes_.size();
    lanes_.emplace_back([this, lane] { lane_main(lane); });
  }
}

void JobService::lane_main(std::size_t lane) {
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
    if (key != 0 && coalesce_limit_ > 1) {
      // Depth-scaled budget: batch only once the queue is deeper than the
      // lane set can drain one job at a time, so a shallow stream still
      // fans out across lanes at full width instead of serializing on one.
      const std::size_t budget =
          std::min(coalesce_limit_, 1 + queue_.size() / lane_limit_);
      while (batch.size() < budget) {
        std::shared_ptr<JobState> more = queue_.try_pop_matching(shard, key);
        if (more == nullptr) break;
        batch.push_back(std::move(more));
      }
    }

    run_dispatch(batch);
    if (dispatch_end_) dispatch_end_();
  }
}

void JobService::run_dispatch(
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
  ThreadPool* pool = width > 1 ? acquire_pool(width) : nullptr;

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::shared_ptr<JobState>& state = batch[i];
    JobStatus expected = JobStatus::kQueued;
    if (!state->status.compare_exchange_strong(expected, JobStatus::kRunning,
                                               std::memory_order_acq_rel)) {
      continue;  // cancelled while queued; the cancelling thread finalized
    }

    state->started_at = Clock::now();
    state->coalesced_dispatch = batch.size() > 1;
    const double queued_ms =
        ms_between(state->submitted_at, state->started_at);
    if (i > 0) coalesced_.fetch_add(1, std::memory_order_relaxed);
    executing_.fetch_add(1, std::memory_order_relaxed);

    if (emit_) {
      JobEvent event = make_event(*state, JobEvent::Kind::kStarted);
      event.queued_ms = queued_ms;
      emit_(event, *state);
    }

    JobResult result = execute_(*state, pool);
    executing_.fetch_sub(1, std::memory_order_relaxed);

    result.queued_ms = queued_ms;
    result.run_ms = ms_between(state->started_at, Clock::now());
    result.queue_depth = state->queue_depth_at_submit;
    const JobStatus status = terminal_status(result);
    finalize(state, std::move(result), status);
  }

  if (pool != nullptr) release_pool(pool);
  running_.fetch_sub(1, std::memory_order_acq_rel);
}

void JobService::cancel_job(const std::shared_ptr<JobState>& state) {
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

void JobService::cancel_all() {
  std::vector<std::shared_ptr<JobState>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = active_;
    std::size_t doomed = 0;
    for (const std::shared_ptr<JobState>& state : snapshot) {
      // Skip jobs already doomed by an overlapping cancel: counting one
      // job twice would leak drain_pending_ and leave the session token
      // raised forever (the sticky poison this design removes).
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
      // last doomed job retires, so cancellation is no longer sticky.
      session_cancel_.request();
    }
    cancel_generation_.fetch_add(1, std::memory_order_acq_rel);
  }
  for (const std::shared_ptr<JobState>& state : snapshot) {
    cancel_job(state);
  }
}

bool JobService::cancel_draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return drain_pending_ > 0;
}

void JobService::finalize(const std::shared_ptr<JobState>& state,
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
  const JobEvent event = publish_result(*state, std::move(result), status);
  if (emit_) emit_(event, *state);
}

ThreadPool* JobService::acquire_pool(std::size_t width) {
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    PoolEntry* best = nullptr;
    bool best_exact = false;
    for (PoolEntry& entry : pools_) {
      if (entry.in_use) continue;
      const bool exact = entry.width == width;
      // Near match: an idle pool up to twice as wide still serves the
      // dispatch (width only changes speed, never results); wider than
      // that would oversubscribe the machine.
      const bool near = entry.width > width && entry.width <= 2 * width;
      if (!exact && !near) continue;
      // Prefer exact widths, then the most recently used (warmest caches).
      if (best == nullptr || (exact && !best_exact) ||
          (exact == best_exact && entry.last_used > best->last_used)) {
        best = &entry;
        best_exact = exact;
      }
    }
    if (best != nullptr) {
      best->in_use = true;
      pool_reuses_.fetch_add(1, std::memory_order_relaxed);
      return best->pool.get();
    }
  }
  // Cold path outside the lock: pool construction spawns threads.
  auto pool = std::make_unique<ThreadPool>(width);
  ThreadPool* raw = pool.get();
  std::lock_guard<std::mutex> lock(pool_mutex_);
  pools_.push_back(PoolEntry{std::move(pool), width, true, ++pool_tick_});
  return raw;
}

void JobService::release_pool(ThreadPool* pool) {
  std::vector<std::unique_ptr<ThreadPool>> evicted;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    std::size_t idle = 0;
    for (PoolEntry& entry : pools_) {
      if (entry.pool.get() == pool) {
        entry.in_use = false;
        entry.last_used = ++pool_tick_;
      }
      if (!entry.in_use && entry.pool.get() != nullptr) ++idle;
    }
    while (idle > kIdlePoolCap) {
      auto lru = pools_.end();
      for (auto it = pools_.begin(); it != pools_.end(); ++it) {
        if (it->in_use) continue;
        if (lru == pools_.end() || it->last_used < lru->last_used) lru = it;
      }
      if (lru == pools_.end()) break;
      evicted.push_back(std::move(lru->pool));
      pools_.erase(lru);
      --idle;
    }
  }
  // Destroy evicted pools (joins their workers) outside the lock.
}

}  // namespace bismo::api::detail

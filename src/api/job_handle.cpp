#include "api/job_handle.hpp"

#include <chrono>
#include <utility>

namespace bismo::api {

const char* to_string(JobStatus status) noexcept {
  switch (status) {
    case JobStatus::kQueued:
      return "queued";
    case JobStatus::kRunning:
      return "running";
    case JobStatus::kDone:
      return "done";
    case JobStatus::kFailed:
      return "failed";
    case JobStatus::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

std::uint64_t JobHandle::id() const noexcept {
  return state_ != nullptr ? state_->id : 0;
}

const std::string& JobHandle::name() const noexcept {
  static const std::string kEmpty;
  return state_ != nullptr ? state_->name : kEmpty;
}

JobStatus JobHandle::status() const noexcept {
  if (state_ == nullptr) return JobStatus::kCancelled;
  const JobStatus status = state_->status.load(std::memory_order_acquire);
  if (!is_terminal(status)) return status;
  // A terminal status is only reported once the result is published, so
  // is_terminal(status()) always implies try_result() != nullptr.  In the
  // claimed-but-unpublished window, report the last observable phase.
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (state_->finished) return status;
  return state_->started_at == detail::JobState::Clock::time_point{}
             ? JobStatus::kQueued
             : JobStatus::kRunning;
}

const JobResult& JobHandle::wait() const {
  static const JobResult kEmptyResult;
  if (state_ == nullptr) return kEmptyResult;
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [this] { return state_->finished; });
  return state_->result;
}

bool JobHandle::wait_for(double seconds) const {
  if (state_ == nullptr) return true;
  std::unique_lock<std::mutex> lock(state_->mutex);
  return state_->cv.wait_for(
      lock, std::chrono::duration<double>(seconds),
      [this] { return state_->finished; });
}

const JobResult* JobHandle::try_result() const {
  if (state_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->finished ? &state_->result : nullptr;
}

void JobHandle::cancel() const {
  if (state_ == nullptr) return;
  // The gate pins the scheduler for the duration of the call: if the
  // session is being destroyed concurrently, either the service is still
  // alive here (its destructor body blocks on the gate before returning)
  // or it is gone and this job is already finalized -- never a dangling
  // dereference.
  std::lock_guard<std::recursive_mutex> lock(state_->gate->mutex);
  if (state_->gate->service == nullptr) return;
  state_->gate->service->cancel_job(state_);
}

namespace detail {

double ms_between(JobState::Clock::time_point from,
                  JobState::Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::shared_ptr<JobState> new_job_state(std::uint64_t id, JobSpec spec,
                                        SubmitOptions options,
                                        std::shared_ptr<ServiceGate> gate) {
  auto state = std::make_shared<JobState>();
  state->id = id;
  state->name = spec.display_name();
  state->method_name = to_string(spec.method);
  state->clip_desc = spec.clip.describe();
  state->spec = std::move(spec);
  state->options = std::move(options);
  state->gate = std::move(gate);
  state->submitted_at = JobState::Clock::now();
  return state;
}

JobEvent make_event(const JobState& state, JobEvent::Kind kind) {
  JobEvent event;
  event.kind = kind;
  event.job_id = state.id;
  event.job_name = state.name;
  event.method = state.method_name;
  event.status = state.status.load(std::memory_order_acquire);
  event.batch_index = state.options.batch_index;
  event.batch_count = state.options.batch_count;
  return event;
}

JobResult drained_result(const JobState& state) {
  JobResult result;
  result.job_name = state.name;
  result.method = state.method_name;
  result.clip = state.clip_desc;
  result.run.method = state.method_name;
  result.run.cancelled = true;
  return result;
}

JobStatus terminal_status(const JobResult& result) {
  if (!result.ok()) return JobStatus::kFailed;
  return result.run.cancelled ? JobStatus::kCancelled : JobStatus::kDone;
}

JobEvent publish_result(JobState& state, JobResult result, JobStatus status) {
  state.status.store(status, std::memory_order_release);
  JobEvent event = make_event(state, JobEvent::Kind::kFinished);
  event.queued_ms = result.queued_ms;
  event.run_ms = result.run_ms;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.result = std::move(result);
    state.finished = true;
  }
  state.cv.notify_all();
  return event;
}

}  // namespace detail

}  // namespace bismo::api

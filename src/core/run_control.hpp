// Run-time control of the optimization drivers: per-step progress
// observation, cooperative cancellation, and the step bookkeeping every
// driver loop shares.
//
// Every driver (core/bismo, core/am_smo, core/mask_opt) keeps its run in
// a RunRecorder, which appends a StepRecord per optimizer step and
// forwards it to the RunControl's observer as it is produced.
// Cancellation is cooperative: the token is checked once per step, the
// driver keeps the trace and parameters computed so far and returns with
// `RunResult::cancelled` set.
#ifndef BISMO_CORE_RUN_CONTROL_HPP
#define BISMO_CORE_RUN_CONTROL_HPP

#include <atomic>
#include <chrono>
#include <functional>
#include <utility>

#include "core/config.hpp"
#include "core/trace.hpp"
#include "grad/abbe_grad.hpp"
#include "opt/optimizer.hpp"

namespace bismo {

/// Shared flag requesting a run to stop at the next step boundary.
/// Thread-safe: any thread may call `request()` while a driver polls
/// `requested()` from the optimization loop.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Ask the run(s) observing this token to stop.
  void request() noexcept { flag_.store(true, std::memory_order_relaxed); }

  /// True once a stop has been requested.
  bool requested() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }

  /// Re-arm the token for a new run.
  void reset() noexcept { flag_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> flag_{false};
};

/// Per-step progress callback.  Invoked from the driver's own thread
/// immediately after the step is appended to the trace; keep it cheap.
using StepObserver = std::function<void(const StepRecord&)>;

/// Observation + cancellation bundle threaded through `run_method`.
/// Default-constructed it is inert (no observer, no cancellation).
///
/// Cancellation composes two scopes: `cancel` is the run's own token (one
/// job of an api::Session, one sweep of a bench), while `session_cancel`
/// optionally points at an enclosing scope's token (a session-wide drain).
/// The run stops when EITHER is requested, so cancelling one job never
/// requires poisoning a shared global token.
struct RunControl {
  StepObserver on_step;               ///< optional per-step callback
  const CancelToken* cancel = nullptr;  ///< the run's own token
  const CancelToken* session_cancel = nullptr;  ///< enclosing-scope token

  /// True when the driver should stop at the next step boundary.
  bool stop_requested() const noexcept {
    return (cancel != nullptr && cancel->requested()) ||
           (session_cancel != nullptr && session_cancel->requested());
  }

  /// Forward a freshly recorded step to the observer, if any.
  void notify(const StepRecord& record) const {
    if (on_step) on_step(record);
  }
};

/// One driver run's bookkeeping: the clock, the trace (each record is
/// forwarded to the observer), the latched cancellation and the count of
/// backward passes.  `descend` is the shared step loop.
class RunRecorder {
 public:
  RunRecorder(const SmoConfig& config, const RunControl& control)
      : weights_(config.weights), control_(control) {}

  /// True once a stop has been requested.  Latched: from then on it stays
  /// true and the result is marked cancelled.  Poll at step boundaries.
  bool stopped() {
    if (!result_.cancelled) result_.cancelled = control_.stop_requested();
    return result_.cancelled;
  }

  /// Count `n` backward passes.
  void count(long n = 1) { result_.gradient_evaluations += n; }

  /// Append the step evaluated in `g` and notify the observer.  The loss
  /// is Lsmo at the configured weights, whatever loss the driver descends,
  /// so every method's trace is comparable.
  void record(const SmoGradient& g) {
    result_.trace.push_back({static_cast<int>(result_.trace.size()),
                             weights_.gamma * g.l2 + weights_.eta * g.pvb,
                             g.l2, g.pvb, seconds()});
    control_.notify(result_.trace.back());
  }

  /// Up to `steps` steps of a fresh `kind` optimizer on `params`, each one
  /// evaluating, counting, recording and stepping along `g.*grad`.  Stops
  /// early when a stop is requested.
  template <typename Evaluate>
  void descend(int steps, OptimizerKind kind, double lr, RealGrid& params,
               RealGrid SmoGradient::*grad, Evaluate&& evaluate) {
    const auto optimizer = make_optimizer(kind, lr);
    for (int step = 0; step < steps && !stopped(); ++step) {
      const SmoGradient& g = evaluate();
      count();
      record(g);
      optimizer->step(params, g.*grad);
    }
  }

  /// The finished run with its final parameters and wall time.
  RunResult finish(RealGrid theta_m, RealGrid theta_j) {
    result_.theta_m = std::move(theta_m);
    result_.theta_j = std::move(theta_j);
    result_.wall_seconds = seconds();
    return std::move(result_);
  }

 private:
  using Clock = std::chrono::steady_clock;

  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  const Clock::time_point start_ = Clock::now();
  const LossWeights weights_;
  const RunControl& control_;
  RunResult result_;
};

}  // namespace bismo

#endif  // BISMO_CORE_RUN_CONTROL_HPP

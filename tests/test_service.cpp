// Async job-service tests: submit/await handles, the persistent lane
// scheduler (out-of-order completion with spec-order results), per-job cancellation isolation, session-cancel drain +
// auto-rearm, queue/run latency surfacing, lease-safe make_problem, and
// shutdown with outstanding handles.  These suites gate the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "test_util.hpp"

namespace bismo {
namespace {

/// A fast spec over the shared tiny 32 x 32 target.
api::JobSpec tiny_spec(int outer_steps = 3) {
  api::JobSpec spec;
  spec.clip = api::ClipSource::from_grid(testing::tiny_target32());
  spec.method = Method::kAbbeMo;
  spec.config.optics.pixel_nm = 16.0;
  spec.config_overrides = {"source_dim=7", "socs_kernels=6",
                           "outer_steps=" + std::to_string(outer_steps)};
  return spec;
}

/// Records one job's event stream and lets tests block on lifecycle edges.
struct EventLog {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<api::JobEvent> events;

  api::JobEventObserver observer() {
    return [this](const api::JobEvent& event) {
      // Notify under the lock: a waiter may destroy this log as soon as
      // it observes the predicate, so the cv must not be touched after
      // the critical section.
      std::lock_guard<std::mutex> lock(mutex);
      events.push_back(event);
      cv.notify_all();
    };
  }

  /// Block until an event of `kind` has been recorded.
  void await(api::JobEvent::Kind kind) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] {
      for (const api::JobEvent& e : events) {
        if (e.kind == kind) return true;
      }
      return false;
    });
  }

  std::vector<api::JobEvent::Kind> kinds() {
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<api::JobEvent::Kind> out;
    out.reserve(events.size());
    for (const api::JobEvent& e : events) out.push_back(e.kind);
    return out;
  }

  /// Block until job `job_id` has recorded `kind`; return its position in
  /// delivery order (the session delivers every event in one FIFO).
  std::size_t await_index(std::uint64_t job_id, api::JobEvent::Kind kind) {
    std::unique_lock<std::mutex> lock(mutex);
    std::size_t index = 0;
    cv.wait(lock, [&] {
      for (index = 0; index < events.size(); ++index) {
        if (events[index].job_id == job_id && events[index].kind == kind) {
          return true;
        }
      }
      return false;
    });
    return index;
  }
};

/// Session-wide record of job names in kStarted / kFinished order.
struct OrderLog {
  std::mutex mutex;
  std::vector<std::string> started;
  std::vector<std::string> finished;

  api::JobEventObserver observer() {
    return [this](const api::JobEvent& event) {
      std::lock_guard<std::mutex> lock(mutex);
      if (event.kind == api::JobEvent::Kind::kStarted) {
        started.push_back(event.job_name);
      } else if (event.kind == api::JobEvent::Kind::kFinished) {
        finished.push_back(event.job_name);
      }
    };
  }
};

TEST(ServiceSubmit, ReturnsImmediatelyAndStreamsOrderedEvents) {
  api::Session session;
  EventLog log;
  api::SubmitOptions options;
  options.on_event = log.observer();

  api::JobSpec spec = tiny_spec(3);
  spec.name = "streamed";
  const api::JobHandle handle = session.submit(spec, std::move(options));
  ASSERT_TRUE(handle.valid());
  EXPECT_GT(handle.id(), 0u);
  EXPECT_EQ(handle.name(), "streamed");

  const api::JobResult& result = handle.wait();
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(handle.status(), api::JobStatus::kDone);
  ASSERT_NE(handle.try_result(), nullptr);
  EXPECT_GE(result.queued_ms, 0.0);
  EXPECT_GT(result.run_ms, 0.0);

  log.await(api::JobEvent::Kind::kFinished);
  const auto kinds = log.kinds();
  // enqueued -> started -> one step per trace entry -> finished, in order.
  ASSERT_EQ(kinds.size(), 3u + result.run.trace.size());
  EXPECT_EQ(kinds.front(), api::JobEvent::Kind::kEnqueued);
  EXPECT_EQ(kinds[1], api::JobEvent::Kind::kStarted);
  for (std::size_t i = 2; i + 1 < kinds.size(); ++i) {
    EXPECT_EQ(kinds[i], api::JobEvent::Kind::kStep);
  }
  EXPECT_EQ(kinds.back(), api::JobEvent::Kind::kFinished);
  {
    std::lock_guard<std::mutex> lock(log.mutex);
    EXPECT_EQ(log.events.back().status, api::JobStatus::kDone);
    EXPECT_GT(log.events.back().run_ms, 0.0);
  }
}

TEST(ServiceSubmit, OutOfOrderCompletionKeepsResultsInSpecOrder) {
  api::Session::Options options;
  options.scheduler_lanes = 2;
  OrderLog order;
  options.on_event = order.observer();
  EventLog first_log;   // outlive the session (events drain into them)
  EventLog second_log;
  api::Session session(options);

  // Spec order [first, second]; `first` is long and keeps running until
  // `second` has finished on the other lane, so completion is
  // [second, first].
  std::vector<api::JobSpec> specs{tiny_spec(300), tiny_spec(2)};
  specs[0].name = "first";
  specs[1].name = "second";
  std::vector<api::JobHandle> handles;
  api::SubmitOptions first_options;
  first_options.on_event = first_log.observer();
  handles.push_back(session.submit(specs[0], std::move(first_options)));
  first_log.await(api::JobEvent::Kind::kStep);
  api::SubmitOptions second_options;
  second_options.on_event = second_log.observer();
  handles.push_back(session.submit(specs[1], std::move(second_options)));
  second_log.await(api::JobEvent::Kind::kFinished);

  handles[0].cancel();
  const api::JobResult r0 = handles[0].wait();
  const api::JobResult r1 = handles[1].wait();

  // Handles keep spec identity even though completion inverted.
  ASSERT_TRUE(r0.ok()) << r0.error;
  ASSERT_TRUE(r1.ok()) << r1.error;
  EXPECT_EQ(r0.job_name, "first");
  EXPECT_EQ(r1.job_name, "second");
  std::lock_guard<std::mutex> lock(order.mutex);
  const auto pos = [&](const std::string& name) {
    for (std::size_t i = 0; i < order.finished.size(); ++i) {
      if (order.finished[i] == name) return i;
    }
    return order.finished.size();
  };
  EXPECT_LT(pos("second"), pos("first"));
}

TEST(ServiceCancel, PerJobCancelLeavesSiblingsUntouched) {
  api::Session::Options options;
  options.scheduler_lanes = 1;
  EventLog blocker_log;  // outlives the session (events drain into it)
  api::Session session(options);

  api::SubmitOptions blocker_options;
  blocker_options.on_event = blocker_log.observer();
  api::JobSpec blocker = tiny_spec(300);
  blocker.name = "blocker";
  const api::JobHandle blocker_handle =
      session.submit(blocker, std::move(blocker_options));
  blocker_log.await(api::JobEvent::Kind::kStep);

  api::JobSpec doomed = tiny_spec(2);
  doomed.name = "doomed";
  api::JobSpec survivor = tiny_spec(2);
  survivor.name = "survivor";
  const api::JobHandle doomed_handle = session.submit(doomed);
  const api::JobHandle survivor_handle = session.submit(survivor);

  // Cancelling a queued job finalizes it immediately -- no lane needed.
  doomed_handle.cancel();
  EXPECT_EQ(doomed_handle.status(), api::JobStatus::kCancelled);
  const api::JobResult& doomed_result = doomed_handle.wait();
  EXPECT_TRUE(doomed_result.cancelled());
  EXPECT_TRUE(doomed_result.run.trace.empty());

  // Cancelling the running job keeps its partial trace.
  blocker_handle.cancel();
  const api::JobResult& blocker_result = blocker_handle.wait();
  EXPECT_EQ(blocker_handle.status(), api::JobStatus::kCancelled);
  EXPECT_TRUE(blocker_result.cancelled());
  EXPECT_FALSE(blocker_result.run.trace.empty());

  // The sibling is untouched by either cancel.
  const api::JobResult& survivor_result = survivor_handle.wait();
  ASSERT_TRUE(survivor_result.ok()) << survivor_result.error;
  EXPECT_EQ(survivor_handle.status(), api::JobStatus::kDone);
  EXPECT_FALSE(survivor_result.cancelled());
  EXPECT_FALSE(survivor_result.run.trace.empty());

  // Per-job cancels never raise the session-wide drain.
  EXPECT_FALSE(session.cancel_requested());
  const api::Session::Stats stats = session.stats();
  EXPECT_EQ(stats.jobs_submitted, 3u);
  EXPECT_EQ(stats.jobs_cancelled, 2u);
}

// Regression for the sticky session-global cancellation: request_cancel
// drains exactly the in-flight work and re-arms automatically; it no
// longer poisons future jobs.
TEST(ServiceCancel, SessionCancelDrainsInFlightAndAutoRearms) {
  api::Session::Options options;
  options.scheduler_lanes = 1;
  EventLog blocker_log;  // outlives the session (events drain into it)
  api::Session session(options);

  api::SubmitOptions blocker_options;
  blocker_options.on_event = blocker_log.observer();
  const api::JobHandle running =
      session.submit(tiny_spec(300), std::move(blocker_options));
  blocker_log.await(api::JobEvent::Kind::kStep);
  const api::JobHandle queued = session.submit(tiny_spec(2));

  session.request_cancel();
  const api::JobResult& running_result = running.wait();
  const api::JobResult& queued_result = queued.wait();
  EXPECT_TRUE(running_result.cancelled());
  EXPECT_FALSE(running_result.run.trace.empty());  // drained, kept partial
  EXPECT_TRUE(queued_result.cancelled());
  EXPECT_TRUE(queued_result.run.trace.empty());

  // The drain is over and the session re-armed itself.
  EXPECT_FALSE(session.cancel_requested());
  const api::JobResult next = session.run(tiny_spec(2));
  ASSERT_TRUE(next.ok()) << next.error;
  EXPECT_FALSE(next.cancelled());
  EXPECT_FALSE(session.cancel_requested());
}

// Regression: overlapping session cancels (an observer calling
// request_cancel on every step, a double Ctrl-C) must not double-count
// the running job in the drain accounting -- a leaked count would leave
// the session token raised forever, resurrecting the sticky poison.
TEST(ServiceCancel, OverlappingSessionCancelsStillRearm) {
  EventLog blocker_log;  // outlives the session (events drain into it)
  api::Session::Options options;
  options.scheduler_lanes = 1;
  api::Session session(options);

  api::SubmitOptions blocker_options;
  blocker_options.on_event = blocker_log.observer();
  const api::JobHandle running =
      session.submit(tiny_spec(300), std::move(blocker_options));
  blocker_log.await(api::JobEvent::Kind::kStep);

  session.request_cancel();
  session.request_cancel();
  session.request_cancel();
  EXPECT_TRUE(running.wait().cancelled());

  EXPECT_FALSE(session.cancel_requested());
  const api::JobResult next = session.run(tiny_spec(2));
  ASSERT_TRUE(next.ok()) << next.error;
  EXPECT_FALSE(next.cancelled());
}

// Regression for the make_problem escape hatch: the returned problem holds
// a real WorkspaceLease for its whole lifetime, so its set can never be
// handed to a scheduler lane concurrently.
TEST(ServiceLease, MakeProblemHoldsItsWorkspaceLease) {
  api::Session session;
  const api::JobSpec spec = tiny_spec(2);

  auto problem = session.make_problem(spec);
  auto sibling = session.make_problem(spec);
  // Two live problems never alias one set.
  EXPECT_NE(problem->workspaces().get(), sibling->workspaces().get());
  sibling.reset();

  // A job scheduled while the problem is alive cannot reuse its set: the
  // only idle set is the one `sibling` just returned.
  const api::JobResult during = session.run(spec);
  ASSERT_TRUE(during.ok()) << during.error;
  EXPECT_TRUE(during.workspaces_reused);  // sibling's returned set
  const api::JobResult second = session.run(spec);
  EXPECT_TRUE(second.workspaces_reused);

  // Only after destruction does the lease return for reuse.
  const sim::WorkspaceSet* leased = problem->workspaces().get();
  problem.reset();
  auto reacquired = session.make_problem(spec);
  EXPECT_EQ(reacquired->workspaces().get(), leased);
}

TEST(ServiceTiming, QueueAndRunLatencySurfaceInResultsAndJson) {
  api::Session::Options options;
  options.scheduler_lanes = 1;
  EventLog log;  // outlives the session (events drain into it)
  api::Session session(options);

  api::SubmitOptions blocker_options;
  blocker_options.on_event = log.observer();
  const api::JobHandle blocker =
      session.submit(tiny_spec(10), std::move(blocker_options));
  log.await(api::JobEvent::Kind::kStep);
  api::SubmitOptions waiter_options;
  waiter_options.on_event = log.observer();
  const api::JobHandle waiter =
      session.submit(tiny_spec(2), std::move(waiter_options));

  const api::JobResult& blocked = waiter.wait();
  ASSERT_TRUE(blocked.ok()) << blocked.error;
  EXPECT_GT(blocked.queued_ms, 0.0);
  EXPECT_GT(blocked.run_ms, 0.0);
  // The waiter sat behind the blocker on the one lane: it started only
  // after the blocker finished.  (Comparing the two queued_ms would time
  // the lazy spawn of the first lane against the blocker's last steps.)
  EXPECT_LT(log.await_index(blocker.id(), api::JobEvent::Kind::kFinished),
            log.await_index(waiter.id(), api::JobEvent::Kind::kStarted));

  std::ostringstream json;
  api::write_json(json, blocked);
  EXPECT_NE(json.str().find("\"queued_ms\""), std::string::npos);
  EXPECT_NE(json.str().find("\"run_ms\""), std::string::npos);
  EXPECT_NE(json.str().find("\"status\": \"done\""), std::string::npos);

  std::ostringstream csv;
  api::write_summary_csv(csv, {blocked});
  EXPECT_NE(csv.str().find("queued_ms"), std::string::npos);
  EXPECT_NE(csv.str().find("run_ms"), std::string::npos);
}

TEST(ServiceShutdown, DestructionFinalizesOutstandingHandles) {
  api::JobHandle running;
  api::JobHandle queued;
  {
    // Declared before the session: the session's destructor still emits
    // finished events into this log while draining.
    EventLog blocker_log;
    api::Session::Options options;
    options.scheduler_lanes = 1;
    api::Session session(options);
    api::SubmitOptions blocker_options;
    blocker_options.on_event = blocker_log.observer();
    running = session.submit(tiny_spec(300), std::move(blocker_options));
    blocker_log.await(api::JobEvent::Kind::kStep);
    queued = session.submit(tiny_spec(2));
  }
  // The session drained both on destruction; handles outlive it safely.
  EXPECT_EQ(running.status(), api::JobStatus::kCancelled);
  EXPECT_EQ(queued.status(), api::JobStatus::kCancelled);
  EXPECT_TRUE(running.wait().cancelled());
  EXPECT_TRUE(queued.wait().run.trace.empty());
  EXPECT_NE(queued.try_result(), nullptr);
  queued.cancel();  // no-op on a terminal job without a live session
}

// Regression: warm lane ThreadPools were cached but never matched on
// reacquire, so lane_pool_reuses stayed 0 and every narrow dispatch paid
// a full pool spin-up.  Two same-shaped concurrent batches must hit the
// warm pool cache.
TEST(ServicePools, RepeatedSameShapeSubmitsReuseWarmLanePools) {
  api::Session::Options options;
  options.threads = 4;
  options.scheduler_lanes = 2;
  api::Session session(options);

  const std::vector<api::JobSpec> specs(4, tiny_spec(2));
  api::Session::BatchOptions batch;
  batch.concurrency = 2;  // two jobs in flight => half-width leased pools
  for (const api::JobResult& r : session.run_batch(specs, batch)) {
    ASSERT_TRUE(r.ok()) << r.error;
  }
  for (const api::JobResult& r : session.run_batch(specs, batch)) {
    ASSERT_TRUE(r.ok()) << r.error;
  }
  EXPECT_GT(session.stats().lane_pool_reuses, 0u);
}

TEST(ServiceCoalesce, CoalescedBatchKeepsEventStreamsAndResultIdentity) {
  api::Session::Options options;
  options.scheduler_lanes = 1;
  EventLog blocker_log;  // outlives the session (events drain into it)
  api::Session session(options);

  api::SubmitOptions blocker_options;
  blocker_options.on_event = blocker_log.observer();
  const api::JobHandle blocker =
      session.submit(tiny_spec(300), std::move(blocker_options));
  blocker_log.await(api::JobEvent::Kind::kStep);

  // Six same-shape jobs pile up behind the blocker sharing one coalesce
  // key; the freed lane batches them into shared dispatches.
  const api::JobSpec base = tiny_spec(2);
  const std::uint64_t key = base.coalesce_fingerprint();
  ASSERT_NE(key, 0u);
  constexpr std::size_t kJobs = 6;
  std::vector<std::unique_ptr<EventLog>> logs;
  std::vector<api::JobHandle> handles;
  for (std::size_t i = 0; i < kJobs; ++i) {
    logs.push_back(std::make_unique<EventLog>());
    api::JobSpec spec = base;
    spec.name = "member-" + std::to_string(i);
    api::SubmitOptions submit;
    submit.coalesce_key = key;
    submit.on_event = logs.back()->observer();
    handles.push_back(session.submit(spec, std::move(submit)));
  }
  blocker.cancel();

  // Coalescing must be invisible per job: own event stream in lifecycle
  // order, own result under the right name.
  for (std::size_t i = 0; i < kJobs; ++i) {
    const api::JobResult& result = handles[i].wait();
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.job_name, "member-" + std::to_string(i));
    logs[i]->await(api::JobEvent::Kind::kFinished);
    const auto kinds = logs[i]->kinds();
    ASSERT_GE(kinds.size(), 3u);
    EXPECT_EQ(kinds.front(), api::JobEvent::Kind::kEnqueued);
    EXPECT_EQ(kinds[1], api::JobEvent::Kind::kStarted);
    EXPECT_EQ(kinds.back(), api::JobEvent::Kind::kFinished);
  }
  EXPECT_GT(session.stats().coalesced_jobs, 0u);

  // A coalesced member's optimization is bitwise identical to the same
  // spec run solo in a fresh session.
  api::Session solo;
  api::JobSpec reference = base;
  reference.name = "member-3";
  const api::JobResult alone = solo.run(reference);
  ASSERT_TRUE(alone.ok()) << alone.error;
  EXPECT_TRUE(handles[3].wait().run.theta_m == alone.run.theta_m);
  EXPECT_TRUE(handles[3].wait().run.theta_j == alone.run.theta_j);
}

TEST(ServiceBackpressure, RejectPolicyFailsFastWhenFull) {
  api::Session::Options options;
  options.scheduler_lanes = 1;
  options.queue_capacity = 2;
  EventLog blocker_log;  // outlives the session (events drain into it)
  api::Session session(options);

  api::SubmitOptions blocker_options;
  blocker_options.on_event = blocker_log.observer();
  const api::JobHandle blocker =
      session.submit(tiny_spec(300), std::move(blocker_options));
  blocker_log.await(api::JobEvent::Kind::kStep);  // lane busy, queue empty
  const api::JobHandle filler1 = session.submit(tiny_spec(2));
  const api::JobHandle filler2 = session.submit(tiny_spec(2));

  api::SubmitOptions reject;
  reject.queue_policy = api::QueuePolicy::kReject;
  const api::JobHandle refused = session.submit(tiny_spec(2), reject);
  // Fail-fast: terminal before any lane touches it.
  EXPECT_EQ(refused.status(), api::JobStatus::kFailed);
  const api::JobResult& refused_result = refused.wait();
  EXPECT_FALSE(refused_result.ok());
  EXPECT_NE(refused_result.error.find("rejected"), std::string::npos);
  EXPECT_NE(refused_result.error.find("queue full"), std::string::npos);
  EXPECT_FALSE(refused_result.cancelled());
  EXPECT_EQ(session.stats().jobs_rejected, 1u);

  blocker.cancel();
  ASSERT_TRUE(filler1.wait().ok()) << filler1.wait().error;
  ASSERT_TRUE(filler2.wait().ok()) << filler2.wait().error;
}

TEST(ServiceBackpressure, ShedOldestMakesRoomAndCountsShed) {
  api::Session::Options options;
  options.scheduler_lanes = 1;
  options.queue_capacity = 2;
  EventLog blocker_log;  // outlives the session (events drain into it)
  api::Session session(options);

  api::SubmitOptions blocker_options;
  blocker_options.on_event = blocker_log.observer();
  const api::JobHandle blocker =
      session.submit(tiny_spec(300), std::move(blocker_options));
  blocker_log.await(api::JobEvent::Kind::kStep);
  const api::JobHandle oldest = session.submit(tiny_spec(2));
  const api::JobHandle second = session.submit(tiny_spec(2));

  api::SubmitOptions shed;
  shed.queue_policy = api::QueuePolicy::kShedOldest;
  const api::JobHandle entrant = session.submit(tiny_spec(2), shed);

  // The oldest queued job was sacrificed for the entrant, and says so.
  const api::JobResult& shed_result = oldest.wait();
  EXPECT_EQ(oldest.status(), api::JobStatus::kCancelled);
  EXPECT_TRUE(shed_result.cancelled());
  EXPECT_TRUE(shed_result.shed);
  EXPECT_EQ(session.stats().jobs_shed, 1u);
  std::ostringstream json;
  api::write_json(json, shed_result);
  EXPECT_NE(json.str().find("\"shed\""), std::string::npos);
  EXPECT_NE(json.str().find("\"queue_depth\""), std::string::npos);

  blocker.cancel();
  ASSERT_TRUE(second.wait().ok()) << second.wait().error;
  ASSERT_TRUE(entrant.wait().ok()) << entrant.wait().error;
  EXPECT_FALSE(entrant.wait().shed);
}

TEST(ServiceBackpressure, BlockPolicyCompletesEverythingUnderOverload) {
  api::Session::Options options;
  options.scheduler_lanes = 2;
  options.queue_capacity = 2;  // far below the offered load
  api::Session session(options);

  // Two producers push five jobs each through a two-slot queue; the
  // default block policy throttles them instead of dropping anything.
  constexpr std::size_t kPerProducer = 5;
  std::vector<api::JobHandle> handles[2];
  std::thread producers[2];
  for (std::size_t p = 0; p < 2; ++p) {
    producers[p] = std::thread([&session, &handles, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        handles[p].push_back(session.submit(tiny_spec(1)));
      }
    });
  }
  for (auto& producer : producers) producer.join();

  for (auto& side : handles) {
    ASSERT_EQ(side.size(), kPerProducer);
    for (const api::JobHandle& handle : side) {
      const api::JobResult& result = handle.wait();
      ASSERT_TRUE(result.ok()) << result.error;
    }
  }
  const api::Session::Stats stats = session.stats();
  EXPECT_EQ(stats.jobs_submitted, 2 * kPerProducer);
  EXPECT_EQ(stats.jobs_shed, 0u);
  EXPECT_EQ(stats.jobs_rejected, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ServiceCancel, CancelWhileQueuedUnderContention) {
  api::Session::Options options;
  options.scheduler_lanes = 2;
  api::Session session(options);

  constexpr std::size_t kJobs = 40;
  std::vector<api::JobHandle> handles;
  handles.reserve(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    handles.push_back(session.submit(tiny_spec(2)));
  }
  // Two threads race the lanes to cancel every other job.
  std::thread cancellers[2];
  for (std::size_t t = 0; t < 2; ++t) {
    cancellers[t] = std::thread([&handles, t] {
      for (std::size_t i = 2 * t; i < kJobs; i += 4) {
        handles[i].cancel();
      }
    });
  }
  for (auto& canceller : cancellers) canceller.join();

  for (std::size_t i = 0; i < kJobs; ++i) {
    const api::JobResult& result = handles[i].wait();
    const api::JobStatus status = handles[i].status();
    ASSERT_TRUE(api::is_terminal(status));
    if (i % 2 == 0) {
      // Cancelled either in the queue or mid-run -- or it beat the cancel.
      EXPECT_TRUE(status == api::JobStatus::kCancelled ||
                  status == api::JobStatus::kDone);
    } else {
      ASSERT_TRUE(result.ok()) << result.error;
      EXPECT_EQ(status, api::JobStatus::kDone);
    }
  }
  EXPECT_EQ(session.stats().queue_depth, 0u);
  EXPECT_EQ(session.stats().jobs_executing, 0u);
}

TEST(ServiceStats, ExposesLiveQueueDepthAndInFlightGauges) {
  api::Session::Options options;
  options.scheduler_lanes = 1;
  EventLog blocker_log;  // outlives the session (events drain into it)
  api::Session session(options);

  api::SubmitOptions blocker_options;
  blocker_options.on_event = blocker_log.observer();
  const api::JobHandle blocker =
      session.submit(tiny_spec(300), std::move(blocker_options));
  blocker_log.await(api::JobEvent::Kind::kStep);
  const api::JobHandle waiter = session.submit(tiny_spec(2));

  // Mid-flight: the blocker occupies the lane, the waiter sits queued.
  const api::Session::Stats busy = session.stats();
  EXPECT_GE(busy.jobs_executing, 1u);
  EXPECT_GE(busy.queue_depth, 1u);

  blocker.cancel();
  ASSERT_TRUE(waiter.wait().ok()) << waiter.wait().error;
  const api::Session::Stats idle = session.stats();
  EXPECT_EQ(idle.queue_depth, 0u);
  EXPECT_EQ(idle.jobs_executing, 0u);
  // The waiter saw a non-empty queue at submission and reports it.
  EXPECT_GE(waiter.wait().queue_depth, 0u);
}

TEST(ServiceWrappers, RunBatchBitwiseIdenticalAcrossLanesAndPolicies) {
  std::vector<api::JobSpec> specs(6, tiny_spec(3));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "b" + std::to_string(i);
  }

  // Legacy-shaped scheduler: one lane, one exact-FIFO shard, no batching.
  api::Session::Options legacy;
  legacy.threads = 4;
  legacy.scheduler_lanes = 1;
  legacy.coalesce_limit = 1;
  api::Session legacy_session(legacy);
  const std::vector<api::JobResult> base =
      legacy_session.run_batch(specs, api::Session::BatchOptions{1});

  // Full serving config: sharded queue, stealing, tight capacity.
  api::Session::Options serving;
  serving.threads = 4;
  serving.scheduler_lanes = 4;
  serving.queue_capacity = 8;
  api::Session serving_session(serving);
  const std::vector<api::JobResult> wide =
      serving_session.run_batch(specs, api::Session::BatchOptions{4});

  ASSERT_EQ(base.size(), specs.size());
  ASSERT_EQ(wide.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(base[i].ok()) << base[i].error;
    ASSERT_TRUE(wide[i].ok()) << wide[i].error;
    EXPECT_EQ(wide[i].job_name, specs[i].name);
    // The scheduling policy must be invisible in the optimization.
    EXPECT_TRUE(base[i].run.theta_m == wide[i].run.theta_m);
    EXPECT_TRUE(base[i].run.theta_j == wide[i].run.theta_j);
  }
}

TEST(ServiceWrappers, RunBatchMatchesAsyncSubmissionBitwise) {
  api::Session session;
  std::vector<api::JobSpec> specs(3, tiny_spec(3));
  const std::vector<api::JobResult> sync =
      session.run_batch(specs, api::Session::BatchOptions{2});

  std::vector<api::JobHandle> handles = session.submit_batch(specs);
  ASSERT_EQ(handles.size(), 3u);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const api::JobResult& async = handles[i].wait();
    ASSERT_TRUE(async.ok()) << async.error;
    ASSERT_TRUE(sync[i].ok()) << sync[i].error;
    // Scheduling path is invisible in the optimization results.
    EXPECT_TRUE(async.run.theta_m == sync[i].run.theta_m);
    EXPECT_TRUE(async.run.theta_j == sync[i].run.theta_j);
  }
}

}  // namespace
}  // namespace bismo

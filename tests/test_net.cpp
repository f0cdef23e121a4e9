// Distributed-serving integration tests: in-process net::Worker +
// net::Dispatcher over real loopback sockets.  Covers endpoint parsing,
// single-worker bitwise identity with an in-process Session, event
// streaming across the wire, two-worker fan-out, placement-hint locality,
// fault injection (a worker hard-killed mid-run; every job completes via
// retry with bitwise-identical results and a recorded retry count),
// cancellation of pending remote jobs, and dispatcher teardown with
// outstanding handles.  These suites gate the cluster-smoke CI job
// (ctest -R '^(Wire|Net)').
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "net/net.hpp"
#include "test_util.hpp"

namespace bismo {
namespace {

/// A fast spec over the shared tiny 32 x 32 target.
api::JobSpec tiny_spec(int outer_steps = 3, const std::string& name = "") {
  api::JobSpec spec;
  spec.name = name;
  spec.clip = api::ClipSource::from_grid(testing::tiny_target32());
  spec.method = Method::kAbbeMo;
  spec.config.optics.pixel_nm = 16.0;
  spec.config_overrides = {"source_dim=7", "socs_kernels=6",
                           "outer_steps=" + std::to_string(outer_steps)};
  spec.evaluate_solution = false;
  return spec;
}

/// Records one job's event stream and lets tests block on lifecycle edges.
struct EventLog {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<api::JobEvent> events;

  api::JobEventObserver observer() {
    return [this](const api::JobEvent& event) {
      std::lock_guard<std::mutex> lock(mutex);
      events.push_back(event);
      cv.notify_all();
    };
  }

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
};

bool grids_equal(const RealGrid& a, const RealGrid& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

net::DispatcherOptions single(const net::Worker& worker) {
  net::DispatcherOptions options;
  options.workers = {net::Endpoint{"127.0.0.1", worker.port()}};
  return options;
}

TEST(NetEndpoints, ParseAcceptsAllFormsAndRejectsGarbage) {
  const std::vector<net::Endpoint> list =
      net::parse_endpoints("10.0.0.7:7421,:9000,8080");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].host, "10.0.0.7");
  EXPECT_EQ(list[0].port, 7421);
  EXPECT_EQ(list[1].host, "127.0.0.1");
  EXPECT_EQ(list[1].port, 9000);
  EXPECT_EQ(list[2].host, "127.0.0.1");
  EXPECT_EQ(list[2].port, 8080);

  for (const char* bad : {"", "host:", "host:0", "host:65536", "host:7x",
                          "a:b", ","}) {
    EXPECT_THROW((void)net::parse_endpoints(bad), std::invalid_argument)
        << '"' << bad << '"';
  }
}

TEST(NetLoopback, SingleWorkerMatchesInProcessBitwise) {
  net::Worker worker(net::WorkerOptions{});
  worker.start();

  net::Dispatcher dispatcher(single(worker));
  ASSERT_EQ(dispatcher.wait_for_workers(1, 30.0), 1u);

  std::vector<api::JobSpec> specs;
  for (int i = 0; i < 3; ++i) {
    specs.push_back(tiny_spec(3, "net-" + std::to_string(i)));
  }
  const std::vector<api::JobResult> remote = dispatcher.run_batch(specs);
  ASSERT_EQ(remote.size(), 3u);

  api::Session local;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(remote[i].ok()) << remote[i].error;
    EXPECT_EQ(remote[i].job_name, "net-" + std::to_string(i));
    EXPECT_EQ(remote[i].retries, 0u);
    const api::JobResult reference = local.run(specs[i]);
    ASSERT_TRUE(reference.ok()) << reference.error;
    // The wire moves doubles as raw bits: remote results are bitwise
    // identical to the same spec run in-process.
    EXPECT_TRUE(grids_equal(remote[i].run.theta_m, reference.run.theta_m));
    EXPECT_TRUE(grids_equal(remote[i].run.theta_j, reference.run.theta_j));
    EXPECT_EQ(remote[i].run.trace.size(), reference.run.trace.size());
  }
  EXPECT_EQ(worker.jobs_served(), 3u);

  const net::Dispatcher::Stats stats = dispatcher.stats();
  EXPECT_EQ(stats.jobs_submitted, 3u);
  EXPECT_EQ(stats.jobs_completed, 3u);
  EXPECT_EQ(stats.jobs_retried, 0u);
  EXPECT_EQ(stats.workers_alive, 1u);

  const std::vector<net::Dispatcher::WorkerInfo> infos = dispatcher.workers();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_TRUE(infos[0].alive);
  EXPECT_EQ(infos[0].name, "worker");
}

TEST(NetLoopback, EventsStreamAcrossTheWire) {
  net::Worker worker(net::WorkerOptions{});
  worker.start();
  net::Dispatcher dispatcher(single(worker));

  EventLog log;
  api::SubmitOptions submit;
  submit.on_event = log.observer();
  const api::JobHandle handle = dispatcher.submit(tiny_spec(4), submit);
  const api::JobResult& result = handle.wait();
  ASSERT_TRUE(result.ok()) << result.error;
  log.await(api::JobEvent::Kind::kFinished);

  const auto kinds = log.kinds();
  ASSERT_GE(kinds.size(), 3u);
  EXPECT_EQ(kinds.front(), api::JobEvent::Kind::kEnqueued);
  EXPECT_EQ(kinds.back(), api::JobEvent::Kind::kFinished);
  std::size_t started = 0;
  std::size_t steps = 0;
  for (const auto kind : kinds) {
    started += kind == api::JobEvent::Kind::kStarted ? 1 : 0;
    steps += kind == api::JobEvent::Kind::kStep ? 1 : 0;
  }
  EXPECT_EQ(started, 1u);
  EXPECT_GT(steps, 0u) << "optimizer steps should relay as kEvent frames";

  std::lock_guard<std::mutex> lock(log.mutex);
  for (const api::JobEvent& event : log.events) {
    EXPECT_EQ(event.job_id, handle.id()) << "wire identity is the "
                                            "dispatcher's job id";
  }
}

TEST(NetLoopback, FanOutAndPlacementHintsLandJobsOnPreferredWorkers) {
  net::Worker a(net::WorkerOptions{});
  net::Worker b(net::WorkerOptions{});
  a.start();
  b.start();

  net::DispatcherOptions options;
  options.workers = {net::Endpoint{"127.0.0.1", a.port()},
                     net::Endpoint{"127.0.0.1", b.port()}};
  net::Dispatcher dispatcher(options);
  ASSERT_EQ(dispatcher.wait_for_workers(2, 30.0), 2u);
  EXPECT_EQ(dispatcher.parallel_width(), 2u);

  // Even hints prefer worker 0, odd hints worker 1 (hint % workers).
  std::vector<api::JobHandle> handles;
  for (int i = 0; i < 6; ++i) {
    api::SubmitOptions submit;
    submit.placement_hint = static_cast<std::uint64_t>(2 + i % 2);
    handles.push_back(
        dispatcher.submit(tiny_spec(2, "fan-" + std::to_string(i)), submit));
  }
  for (const api::JobHandle& handle : handles) {
    const api::JobResult& r = handle.wait();
    ASSERT_TRUE(r.ok()) << r.error;
  }
  // Both alive: placement is honored exactly, 3 jobs each.
  EXPECT_EQ(a.jobs_served(), 3u);
  EXPECT_EQ(b.jobs_served(), 3u);
}

TEST(NetFault, KilledWorkerJobsRetryElsewhereBitwiseIdentical) {
  auto victim = std::make_unique<net::Worker>(net::WorkerOptions{});
  net::Worker survivor(net::WorkerOptions{});
  victim->start();
  survivor.start();

  net::DispatcherOptions options;
  options.workers = {net::Endpoint{"127.0.0.1", victim->port()},
                     net::Endpoint{"127.0.0.1", survivor.port()}};
  options.heartbeat_timeout_seconds = 2.0;
  net::Dispatcher dispatcher(options);
  ASSERT_EQ(dispatcher.wait_for_workers(2, 30.0), 2u);

  // Every job pinned to the victim; the first is long enough to still be
  // mid-run when the kill lands.
  EventLog first_log;
  std::vector<api::JobHandle> handles;
  std::vector<api::JobSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(tiny_spec(i == 0 ? 120 : 3, "fault-" + std::to_string(i)));
    api::SubmitOptions submit;
    submit.placement_hint = 2;  // 2 % 2 == worker 0, the victim
    if (i == 0) submit.on_event = first_log.observer();
    handles.push_back(dispatcher.submit(specs.back(), submit));
  }
  first_log.await(api::JobEvent::Kind::kStep);  // victim is mid-optimization
  victim->kill();  // what a SIGKILL'd worker process looks like on the wire

  // Every job still completes -- the dispatcher requeues the victim's
  // open jobs onto the survivor (their preferred worker is down, so the
  // placement preference spills).
  api::Session local;
  bool saw_retry = false;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const api::JobResult& r = handles[i].wait();
    ASSERT_TRUE(r.ok()) << r.error;
    saw_retry = saw_retry || r.retries > 0;
    const api::JobResult reference = local.run(specs[i]);
    // A retried job's half-run first attempt was discarded: the rerun is
    // bitwise identical to a clean in-process run.
    EXPECT_TRUE(grids_equal(r.run.theta_m, reference.run.theta_m))
        << specs[i].name;
    EXPECT_TRUE(grids_equal(r.run.theta_j, reference.run.theta_j))
        << specs[i].name;
  }
  EXPECT_TRUE(saw_retry) << "the mid-run job must record its resubmission";
  EXPECT_GT(dispatcher.stats().jobs_retried, 0u);
  EXPECT_GT(survivor.jobs_served(), 0u);
  victim.reset();  // killed workers stay destructible
}

TEST(NetCancel, PendingJobOnUnreachableClusterCancelsCleanly) {
  // Nobody listens on port 1; the job stays pending through connect
  // backoff until cancelled.
  net::DispatcherOptions options;
  options.workers = {net::Endpoint{"127.0.0.1", 1}};
  net::Dispatcher dispatcher(options);

  const api::JobHandle handle = dispatcher.submit(tiny_spec(3, "doomed"));
  EXPECT_EQ(handle.status(), api::JobStatus::kQueued);
  handle.cancel();
  const api::JobResult& result = handle.wait();
  EXPECT_TRUE(result.cancelled());
  EXPECT_EQ(handle.status(), api::JobStatus::kCancelled);
  EXPECT_TRUE(result.run.trace.empty()) << "cancelled while queued: no work";
}

TEST(NetCancel, DispatcherTeardownCancelsOutstandingHandles) {
  api::JobHandle orphan;
  {
    net::DispatcherOptions options;
    options.workers = {net::Endpoint{"127.0.0.1", 1}};
    net::Dispatcher dispatcher(options);
    orphan = dispatcher.submit(tiny_spec(3, "orphan"));
  }
  // The dispatcher is gone; the handle finalized as cancelled and stays
  // safe to query (same contract as Session shutdown).
  ASSERT_TRUE(orphan.valid());
  EXPECT_EQ(orphan.status(), api::JobStatus::kCancelled);
  EXPECT_TRUE(orphan.wait().cancelled());
  orphan.cancel();  // no-op on terminal jobs, must not crash
}

TEST(NetWorkerLifecycle, StopIsOrderlyAndIdempotent) {
  net::Worker worker(net::WorkerOptions{});
  worker.start();
  {
    net::Dispatcher dispatcher(single(worker));
    ASSERT_EQ(dispatcher.wait_for_workers(1, 30.0), 1u);
    // Keep the handle alive: wait() returns a reference into its state.
    const api::JobHandle handle = dispatcher.submit(tiny_spec(2));
    const api::JobResult& r = handle.wait();
    ASSERT_TRUE(r.ok()) << r.error;
  }
  worker.stop();
  worker.stop();  // idempotent
  EXPECT_EQ(worker.jobs_served(), 1u);
}

}  // namespace
}  // namespace bismo

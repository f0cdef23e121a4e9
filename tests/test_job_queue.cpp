// Sharded MPMC dispatch-queue tests: single-shard FIFO ordering,
// multi-producer/multi-consumer stress (exactly-once delivery),
// steal-path coverage, coalesce-key matched pops, shed-victim selection,
// capacity behavior, and close/drain semantics.  Suite names start with
// "JobQueue" so the TSan CI leg (-R '^(Service|Session|Job|TileScheduler)')
// runs them; BISMO_QUEUE_STRESS_ITERS scales the stress case up for the
// dedicated TSan stress invocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "api/job_queue.hpp"

namespace bismo {
namespace {

using api::detail::JobQueue;
using api::detail::JobState;

std::shared_ptr<JobState> make_job(std::uint64_t id,
                                   std::uint64_t coalesce_key = 0) {
  auto state = std::make_shared<JobState>();
  state->id = id;
  state->options.coalesce_key = coalesce_key;
  return state;
}

std::size_t stress_items_per_producer() {
  if (const char* env = std::getenv("BISMO_QUEUE_STRESS_ITERS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 2000;
}

JobQueue::Config one_shard(std::size_t capacity = 1024) {
  JobQueue::Config config;
  config.shards = 1;
  config.shard_capacity = capacity;
  return config;
}

TEST(JobQueueOrder, SingleShardIsExactFifo) {
  JobQueue queue(one_shard());
  for (std::uint64_t id = 1; id <= 100; ++id) {
    ASSERT_TRUE(queue.try_push(make_job(id)));
  }
  EXPECT_EQ(queue.size(), 100u);
  std::size_t shard = 0;
  bool stolen = false;
  for (std::uint64_t id = 1; id <= 100; ++id) {
    const auto state = queue.pop(0, &shard, &stolen);
    ASSERT_NE(state, nullptr);
    EXPECT_EQ(state->id, id);
    EXPECT_FALSE(stolen);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(JobQueueSteal, OneConsumerDrainsEveryShard) {
  JobQueue::Config config;
  config.shards = 4;
  config.shard_capacity = 64;
  JobQueue queue(config);
  ASSERT_EQ(queue.shard_count(), 4u);
  for (std::uint64_t id = 1; id <= 40; ++id) {
    ASSERT_TRUE(queue.try_push(make_job(id)));  // round-robins the shards
  }
  std::set<std::uint64_t> seen;
  std::size_t stolen_count = 0;
  std::size_t shard = 0;
  bool stolen = false;
  for (int i = 0; i < 40; ++i) {
    const auto state = queue.pop(/*lane=*/0, &shard, &stolen);
    ASSERT_NE(state, nullptr);
    seen.insert(state->id);
    if (stolen) ++stolen_count;
  }
  EXPECT_EQ(seen.size(), 40u);      // every job, exactly once
  EXPECT_GE(stolen_count, 30u);     // 3 of 4 shards are not lane 0's own
  EXPECT_EQ(queue.size(), 0u);
}

TEST(JobQueueMpmc, StressDeliversEveryJobExactlyOnce) {
  const std::size_t kProducers = 4;
  const std::size_t kConsumers = 4;
  const std::size_t per_producer = stress_items_per_producer();
  const std::size_t total = kProducers * per_producer;

  JobQueue::Config config;
  config.shards = 4;
  config.shard_capacity = 1 << 12;
  JobQueue queue(config);

  std::atomic<std::size_t> popped{0};
  std::vector<std::vector<std::uint64_t>> received(kConsumers);
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      std::size_t shard = 0;
      bool stolen = false;
      for (;;) {
        const auto state = queue.pop(c, &shard, &stolen);
        if (state == nullptr) return;  // closed
        received[c].push_back(state->id);
        popped.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < per_producer; ++i) {
        const auto job = make_job(1 + p * per_producer + i);
        while (!queue.try_push(job)) {
          std::this_thread::yield();  // ring momentarily full
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  while (popped.load(std::memory_order_acquire) < total) {
    std::this_thread::yield();
  }
  queue.close();
  for (auto& t : consumers) t.join();

  std::vector<std::uint64_t> all;
  for (const auto& ids : received) {
    all.insert(all.end(), ids.begin(), ids.end());
  }
  ASSERT_EQ(all.size(), total);  // nothing lost, nothing duplicated
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all.front(), 1u);
  EXPECT_EQ(all.back(), total);
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(JobQueueMpmc, StressSingleShardNoStealDeliversEveryJobExactlyOnce) {
  // A one-lane session gets a single-shard queue, so every consumer
  // contends on one ring and the steal scan never runs.  Same
  // exactly-once contract, no-steal topology; the TSan stress leg runs
  // this alongside the sharded variant.
  const std::size_t kProducers = 4;
  const std::size_t kConsumers = 4;
  const std::size_t per_producer = stress_items_per_producer();
  const std::size_t total = kProducers * per_producer;

  JobQueue queue(one_shard(1 << 12));

  std::atomic<std::size_t> popped{0};
  std::vector<std::vector<std::uint64_t>> received(kConsumers);
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      std::size_t shard = 0;
      bool stolen = false;
      for (;;) {
        const auto state = queue.pop(c, &shard, &stolen);
        if (state == nullptr) return;  // closed
        EXPECT_FALSE(stolen);  // one shard: nothing to steal from
        received[c].push_back(state->id);
        popped.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < per_producer; ++i) {
        const auto job = make_job(1 + p * per_producer + i);
        while (!queue.try_push(job)) {
          std::this_thread::yield();  // ring momentarily full
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  while (popped.load(std::memory_order_acquire) < total) {
    std::this_thread::yield();
  }
  queue.close();
  for (auto& t : consumers) t.join();

  std::vector<std::uint64_t> all;
  for (const auto& ids : received) {
    all.insert(all.end(), ids.begin(), ids.end());
  }
  ASSERT_EQ(all.size(), total);  // nothing lost, nothing duplicated
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all.front(), 1u);
  EXPECT_EQ(all.back(), total);
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(JobQueueCoalesce, MatchedPopTakesOnlySameKeyHead) {
  JobQueue queue(one_shard());
  ASSERT_TRUE(queue.try_push(make_job(1, /*coalesce_key=*/7)));
  ASSERT_TRUE(queue.try_push(make_job(2, 7)));
  ASSERT_TRUE(queue.try_push(make_job(3, 9)));
  ASSERT_TRUE(queue.try_push(make_job(4, 7)));

  std::size_t shard = 0;
  bool stolen = false;
  const auto head = queue.pop(0, &shard, &stolen);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->id, 1u);

  // Key 7 matches the next queued job, then stops at the key-9 head.
  const auto second = queue.try_pop_matching(shard, 7);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->id, 2u);
  EXPECT_EQ(queue.try_pop_matching(shard, 7), nullptr);
  // Key 0 never coalesces.
  EXPECT_EQ(queue.try_pop_matching(shard, 0), nullptr);

  EXPECT_EQ(queue.pop(0, &shard, &stolen)->id, 3u);
  EXPECT_EQ(queue.pop(0, &shard, &stolen)->id, 4u);
}

TEST(JobQueueCapacity, TryPushFailsOnlyWhenRingsAreFull) {
  JobQueue queue(one_shard(/*capacity=*/8));
  for (std::uint64_t id = 1; id <= 8; ++id) {
    ASSERT_TRUE(queue.try_push(make_job(id)));
  }
  EXPECT_FALSE(queue.try_push(make_job(9)));  // ring full

  std::size_t shard = 0;
  bool stolen = false;
  EXPECT_EQ(queue.pop(0, &shard, &stolen)->id, 1u);
  EXPECT_TRUE(queue.try_push(make_job(9)));  // space again
}

TEST(JobQueueShed, VictimIsOldestQueuedJob) {
  JobQueue::Config config;
  config.shards = 2;
  config.shard_capacity = 64;
  JobQueue queue(config);
  ASSERT_EQ(queue.shard_count(), 2u);
  for (std::uint64_t id = 1; id <= 6; ++id) {
    ASSERT_TRUE(queue.try_push(make_job(id)));  // alternates the shards
  }

  // The victim is the smallest head id across shards: id order overall.
  for (std::uint64_t id = 1; id <= 6; ++id) {
    const auto victim = queue.shed_victim();
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->id, id);
  }
  EXPECT_EQ(queue.shed_victim(), nullptr);  // nothing left to shed
  EXPECT_EQ(queue.size(), 0u);
}

TEST(JobQueueClose, PopReturnsNullAfterDrainingAndClose) {
  JobQueue queue(one_shard());
  ASSERT_TRUE(queue.try_push(make_job(1)));
  ASSERT_TRUE(queue.try_push(make_job(2)));
  const auto drained = queue.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(queue.size(), 0u);

  queue.close();
  std::size_t shard = 0;
  bool stolen = false;
  EXPECT_EQ(queue.pop(0, &shard, &stolen), nullptr);

  // A parked consumer wakes up with nullptr when close() lands.
  JobQueue parked(one_shard());
  std::thread consumer([&parked] {
    std::size_t s = 0;
    bool st = false;
    EXPECT_EQ(parked.pop(0, &s, &st), nullptr);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  parked.close();
  consumer.join();
}

}  // namespace
}  // namespace bismo

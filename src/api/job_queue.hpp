// Sharded, mostly-lock-free dispatch queue feeding the persistent lane
// scheduler (multi-producer, multi-consumer).
//
// Layout: one bounded ring segment per shard (Vyukov-style MPMC ring with
// per-cell sequence numbers and atomic head/tail), plus a queue-level
// occupancy bitset (one bit per shard) that consumers scan to steal from
// loaded neighbours.  The result is relaxed FIFO overall (exact FIFO
// within a shard, and exact FIFO for single-lane sessions, which get
// exactly one shard).
//
// Ordering contract: submission order (the job id) per shard.  Jobs
// cancelled while queued are NOT erased -- they stay in line as terminal
// entries that lanes skip with a failed status CAS -- so cancellation
// never races the pop path.
//
// Blocking is the fallback, not the norm: pop() only touches the sleep
// mutex after its own shard and every occupied neighbour shard came up
// empty, and push only touches it when a consumer is actually asleep.
#ifndef BISMO_API_JOB_QUEUE_HPP
#define BISMO_API_JOB_QUEUE_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "api/job_handle.hpp"

namespace bismo::api::detail {

/// Thread-safe relaxed-FIFO job queue (multi-producer, multi-consumer).
class JobQueue {
 public:
  struct Config {
    /// Ring segments; clamped to [1, 64] (the occupancy bitset width).
    /// One shard per lane keeps the pop fast path contention-free.
    std::size_t shards = 1;
    /// Cells per shard ring, rounded up to a power of two.
    std::size_t shard_capacity = 1024;
  };

  explicit JobQueue(Config config);

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Non-blocking push.  Jobs round-robin over the shard rings (spilling to
  /// the next shard when the preferred ring is full).  False only when
  /// every ring is full -- admission control (block/reject/shed) lives in
  /// the caller.
  bool try_push(const std::shared_ptr<JobState>& state);

  /// Block until a job is available or the queue is closed.  Returns
  /// nullptr once closed and drained of claimable work.  Pop order: own
  /// shard, then steal from occupied neighbours.  `*shard_out` is the ring
  /// the job came from; `*stolen` is true when it was another lane's.
  std::shared_ptr<JobState> pop(std::size_t lane, std::size_t* shard_out,
                                bool* stolen);

  /// Non-blocking pop from `shard` only if its head entry carries exactly
  /// `coalesce_key` (key 0 never matches).  This is the batching path: a
  /// lane that popped a coalescable job gathers same-shape neighbours from
  /// the same shard behind it.
  std::shared_ptr<JobState> try_pop_matching(std::size_t shard,
                                             std::uint64_t coalesce_key);

  /// Non-blocking pop of the oldest queued job (shed-oldest admission
  /// policy); nullptr when nothing is queued.  Relaxed "oldest": the victim
  /// is the smallest head id observed across shards, racing pops may get
  /// a close neighbour instead.
  std::shared_ptr<JobState> shed_victim();

  /// Block until total occupancy drops below `below` or the queue closes
  /// (block admission policy backoff).
  void wait_space(std::size_t below);

  /// Remove and return every queued entry (shutdown path).
  std::vector<std::shared_ptr<JobState>> drain();

  /// Wake all waiters; subsequent pop() calls return nullptr.
  void close();

  /// Total queued entries, including cancelled
  /// entries not yet skipped by a lane.
  std::size_t size() const {
    return size_.load(std::memory_order_acquire);
  }

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_capacity() const { return shard_mask_ + 1; }

 private:
  /// One Vyukov MPMC ring cell.  `item` is handed between producer and
  /// consumer through the acquire/release protocol on `seq`; `id` and
  /// `key` are advisory atomic snapshots (written before the seq publish)
  /// that shed_victim / try_pop_matching may peek without claiming.
  struct Cell {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> id{0};
    std::atomic<std::uint64_t> key{0};
    std::shared_ptr<JobState> item;
  };

  struct Shard {
    explicit Shard(std::size_t capacity);
    std::vector<Cell> cells;
    alignas(64) std::atomic<std::uint64_t> head{0};
    alignas(64) std::atomic<std::uint64_t> tail{0};
    alignas(64) std::atomic<std::size_t> occupancy{0};
  };

  bool try_push_shard(Shard& shard, std::size_t index,
                      const std::shared_ptr<JobState>& state);
  /// Claim the head of `shard`; with `want_key`, only when the head's key
  /// snapshot equals it.  nullptr when empty, contended, or mismatched.
  std::shared_ptr<JobState> try_pop_shard(std::size_t index,
                                          const std::uint64_t* want_key);

  void note_pushed(std::size_t shard_index);
  void note_popped();

  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t shard_mask_ = 0;  ///< ring capacity - 1 (power of two)

  /// Bit s set => shard s *may* be non-empty.  Maintained approximately:
  /// set on push, cleared by a consumer observing the shard empty (and
  /// re-set if a racing push landed meanwhile).
  std::atomic<std::uint64_t> occupied_{0};
  std::atomic<std::uint64_t> push_ticket_{0};  ///< round-robin shard pick
  std::atomic<std::size_t> size_{0};           ///< queued entries

  std::atomic<bool> closed_{false};

  /// Consumer sleep/wake fallback + producer space waits (block policy).
  std::mutex sleep_mutex_;
  std::condition_variable ready_cv_;
  std::condition_variable space_cv_;
  std::atomic<std::size_t> pop_waiters_{0};
  std::atomic<std::size_t> space_waiters_{0};
};

}  // namespace bismo::api::detail

#endif  // BISMO_API_JOB_QUEUE_HPP

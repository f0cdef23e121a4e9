#include "api/job_queue.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace bismo::api::detail {
namespace {

std::size_t round_up_pow2(std::size_t value) {
  std::size_t pow2 = 1;
  while (pow2 < value) pow2 <<= 1;
  return pow2;
}

unsigned trailing_zeros(std::uint64_t bits) {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<unsigned>(__builtin_ctzll(bits));
#else
  unsigned n = 0;
  while ((bits & 1u) == 0) {
    bits >>= 1;
    ++n;
  }
  return n;
#endif
}

constexpr std::size_t kNoShard = std::numeric_limits<std::size_t>::max();

}  // namespace

JobQueue::Shard::Shard(std::size_t capacity) : cells(capacity) {
  for (std::size_t i = 0; i < capacity; ++i) {
    cells[i].seq.store(i, std::memory_order_relaxed);
  }
}

JobQueue::JobQueue(Config config) {
  const std::size_t nshards =
      std::min<std::size_t>(64, std::max<std::size_t>(1, config.shards));
  const std::size_t capacity =
      round_up_pow2(std::max<std::size_t>(2, config.shard_capacity));
  shard_mask_ = capacity - 1;
  shards_.reserve(nshards);
  for (std::size_t s = 0; s < nshards; ++s) {
    shards_.push_back(std::make_unique<Shard>(capacity));
  }
}

// bismo-lint: no-alloc-begin
// The MPMC ring fast path: push/pop/notify touch only pre-sized cells
// and refcounts -- the dispatch loop must stay allocation-free.
bool JobQueue::try_push_shard(Shard& shard, std::size_t index,
                              const std::shared_ptr<JobState>& state) {
  std::uint64_t pos = shard.tail.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = shard.cells[pos & shard_mask_];
    const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
    const std::int64_t dif =
        static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
    if (dif == 0) {
      if (shard.tail.compare_exchange_weak(pos, pos + 1,
                                           std::memory_order_relaxed)) {
        cell.item = state;
        cell.id.store(state->id, std::memory_order_relaxed);
        cell.key.store(state->options.coalesce_key,
                       std::memory_order_relaxed);
        cell.seq.store(pos + 1, std::memory_order_release);
        shard.occupancy.fetch_add(1, std::memory_order_release);
        note_pushed(index);
        return true;
      }
    } else if (dif < 0) {
      return false;  // ring full
    } else {
      pos = shard.tail.load(std::memory_order_relaxed);
    }
  }
}

std::shared_ptr<JobState> JobQueue::try_pop_shard(
    std::size_t index, const std::uint64_t* want_key) {
  Shard& shard = *shards_[index];
  std::uint64_t pos = shard.head.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = shard.cells[pos & shard_mask_];
    const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
    const std::int64_t dif =
        static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos + 1);
    if (dif == 0) {
      // The key snapshot belongs to entry `pos` while seq == pos + 1 and
      // head is still `pos`; winning the head CAS below validates it.
      if (want_key != nullptr &&
          cell.key.load(std::memory_order_relaxed) != *want_key) {
        return nullptr;
      }
      if (shard.head.compare_exchange_weak(pos, pos + 1,
                                           std::memory_order_relaxed)) {
        std::shared_ptr<JobState> state = std::move(cell.item);
        cell.seq.store(pos + shard_mask_ + 1, std::memory_order_release);
        shard.occupancy.fetch_sub(1, std::memory_order_release);
        note_popped();
        return state;
      }
    } else if (dif < 0) {
      return nullptr;  // ring empty
    } else {
      pos = shard.head.load(std::memory_order_relaxed);
    }
  }
}

void JobQueue::note_pushed(std::size_t shard_index) {
  occupied_.fetch_or(std::uint64_t{1} << shard_index,
                     std::memory_order_release);
  size_.fetch_add(1, std::memory_order_seq_cst);
  if (pop_waiters_.load(std::memory_order_seq_cst) > 0) {
    // Empty critical section: serializes with a consumer between its
    // predicate check and its wait, so the notify cannot be lost.
    { std::lock_guard<std::mutex> lock(sleep_mutex_); }
    ready_cv_.notify_one();
  }
}

void JobQueue::note_popped() {
  size_.fetch_sub(1, std::memory_order_seq_cst);
  if (space_waiters_.load(std::memory_order_seq_cst) > 0) {
    { std::lock_guard<std::mutex> lock(sleep_mutex_); }
    space_cv_.notify_all();
  }
}
// bismo-lint: no-alloc-end

bool JobQueue::try_push(const std::shared_ptr<JobState>& state) {
  const std::size_t nshards = shards_.size();
  const std::size_t start = static_cast<std::size_t>(
      push_ticket_.fetch_add(1, std::memory_order_relaxed) % nshards);
  for (std::size_t i = 0; i < nshards; ++i) {
    const std::size_t s = (start + i) % nshards;
    if (try_push_shard(*shards_[s], s, state)) return true;
  }
  return false;  // every ring full: the caller's admission policy decides
}

std::shared_ptr<JobState> JobQueue::pop(std::size_t lane,
                                        std::size_t* shard_out,
                                        bool* stolen) {
  const std::size_t nshards = shards_.size();
  const std::size_t home = lane % nshards;
  for (;;) {
    if (auto state = try_pop_shard(home, nullptr)) {
      *shard_out = home;
      *stolen = false;
      return state;
    }
    if (nshards > 1) {
      std::uint64_t bits = occupied_.load(std::memory_order_acquire) &
                           ~(std::uint64_t{1} << home);
      while (bits != 0) {
        const std::size_t s = trailing_zeros(bits);
        bits &= bits - 1;
        if (auto state = try_pop_shard(s, nullptr)) {
          *shard_out = s;
          *stolen = true;
          return state;
        }
        // Shard looked empty: retire its occupancy bit, re-setting it when
        // a racing push landed between the failed pop and the clear.
        occupied_.fetch_and(~(std::uint64_t{1} << s),
                            std::memory_order_acq_rel);
        if (shards_[s]->occupancy.load(std::memory_order_acquire) > 0) {
          occupied_.fetch_or(std::uint64_t{1} << s,
                             std::memory_order_release);
        }
      }
    }
    // Everything came up empty: fall back to the condvar until a push (or
    // close) arrives, then rescan.
    {
      std::unique_lock<std::mutex> lock(sleep_mutex_);
      if (closed_.load(std::memory_order_acquire)) return nullptr;
      pop_waiters_.fetch_add(1, std::memory_order_seq_cst);
      ready_cv_.wait(lock, [this] {
        return closed_.load(std::memory_order_acquire) ||
               size_.load(std::memory_order_seq_cst) > 0;
      });
      pop_waiters_.fetch_sub(1, std::memory_order_seq_cst);
      if (closed_.load(std::memory_order_acquire)) return nullptr;
    }
  }
}

std::shared_ptr<JobState> JobQueue::try_pop_matching(
    std::size_t shard, std::uint64_t coalesce_key) {
  if (coalesce_key == 0 || shard >= shards_.size()) return nullptr;
  return try_pop_shard(shard, &coalesce_key);
}

std::shared_ptr<JobState> JobQueue::shed_victim() {
  // The shard whose head id snapshot is the smallest.  A few attempts
  // absorb races with concurrent pops.
  for (int attempt = 0; attempt < 4; ++attempt) {
    std::size_t best = kNoShard;
    std::uint64_t best_id = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      if (shard.occupancy.load(std::memory_order_acquire) == 0) continue;
      const std::uint64_t head = shard.head.load(std::memory_order_relaxed);
      const Cell& cell = shard.cells[head & shard_mask_];
      if (cell.seq.load(std::memory_order_acquire) != head + 1) continue;
      const std::uint64_t id = cell.id.load(std::memory_order_relaxed);
      if (best == kNoShard || id < best_id) {
        best = s;
        best_id = id;
      }
    }
    if (best == kNoShard) break;
    if (auto state = try_pop_shard(best, nullptr)) return state;
  }
  return nullptr;
}

void JobQueue::wait_space(std::size_t below) {
  std::unique_lock<std::mutex> lock(sleep_mutex_);
  if (closed_.load(std::memory_order_acquire)) return;
  space_waiters_.fetch_add(1, std::memory_order_seq_cst);
  space_cv_.wait(lock, [this, below] {
    return closed_.load(std::memory_order_acquire) ||
           size_.load(std::memory_order_seq_cst) < below;
  });
  space_waiters_.fetch_sub(1, std::memory_order_seq_cst);
}

std::vector<std::shared_ptr<JobState>> JobQueue::drain() {
  std::vector<std::shared_ptr<JobState>> drained;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    while (auto state = try_pop_shard(s, nullptr)) {
      drained.push_back(std::move(state));
    }
  }
  return drained;
}

void JobQueue::close() {
  closed_.store(true, std::memory_order_seq_cst);
  { std::lock_guard<std::mutex> lock(sleep_mutex_); }
  ready_cv_.notify_all();
  space_cv_.notify_all();
}

}  // namespace bismo::api::detail

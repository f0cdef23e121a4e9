// IdleCache: the one warm-object cache behind api::Session.
//
// The session keeps two kinds of expensive execution state warm between
// jobs: ThreadPools (keyed by width) and sim::WorkspaceSets (keyed by mask
// dimension).  Both live in an IdleCache, which holds IDLE entries only:
// checkout removes an entry, and giving it back re-adds it with a fresh
// LRU tick.  A lookup prefers an exact key, else one up to `stretch` times
// the requested key (pools accept an idle pool up to 2x wider -- width
// changes speed, never results; workspace sets need an exact dimension),
// and the most recently used entry among equals.  Past kCapacity idle
// entries the least recently used one is handed back to the caller, which
// destroys it outside the cache lock (a pool's destructor joins threads).
#ifndef BISMO_API_IDLE_CACHE_HPP
#define BISMO_API_IDLE_CACHE_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace bismo::api::detail {

/// Thread-safe LRU cache of idle owning pointers (`Ptr` is a unique_ptr or
/// shared_ptr).
template <typename Ptr>
class IdleCache {
 public:
  /// Idle entries kept warm; checked-out entries never count.
  static constexpr std::size_t kCapacity = 4;

  /// `stretch`: an idle entry keyed up to stretch x the request serves it.
  explicit IdleCache(std::size_t stretch) : stretch_(stretch) {
    entries_.reserve(kCapacity + 1);
  }

  /// Remove and return the best idle entry for `key`; null when none fits
  /// (the caller builds a cold one outside the lock).
  Ptr checkout(std::size_t key) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto best = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->key < key || it->key > stretch_ * key) continue;
      const bool exact = it->key == key;
      const bool best_exact = best != entries_.end() && best->key == key;
      if (best == entries_.end() || (exact && !best_exact) ||
          (exact == best_exact && it->last_used > best->last_used)) {
        best = it;
      }
    }
    if (best == entries_.end()) return nullptr;
    Ptr value = std::move(best->value);
    entries_.erase(best);
    return value;
  }

  /// Return an entry keyed `key`.  Past the cap, the least recently used
  /// idle entry is evicted and returned for destruction (null otherwise).
  Ptr give_back(std::size_t key, Ptr value) {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.push_back(Entry{std::move(value), key, ++tick_});
    if (entries_.size() <= kCapacity) return nullptr;
    const auto lru = std::min_element(
        entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
          return a.last_used < b.last_used;
        });
    Ptr victim = std::move(lru->value);
    entries_.erase(lru);
    return victim;
  }

 private:
  struct Entry {
    Ptr value;
    std::size_t key = 0;
    std::uint64_t last_used = 0;  ///< LRU tick
  };

  std::size_t stretch_;
  std::mutex mutex_;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
};

}  // namespace bismo::api::detail

#endif  // BISMO_API_IDLE_CACHE_HPP

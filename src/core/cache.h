// LRU cache — the building block of caching proxies.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "obs/metrics.h"

namespace proxy::core {

/// Cache tallies as obs::Counter cells (accessors unchanged; attachable
/// through an obs::MetricScope via LruCache::BindMetrics).
struct CacheStats {
  obs::Counter hits;
  obs::Counter misses;
  obs::Counter evictions;
  obs::Counter invalidations;

  [[nodiscard]] double hit_rate() const noexcept {
    const auto total = hits.value() + misses.value();
    return total == 0 ? 0.0 : static_cast<double>(hits.value()) / total;
  }
};

template <typename K, typename V>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// Looks `key` up, refreshing its recency. Counts a hit or miss.
  std::optional<V> Get(const K& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      stats_.misses++;
      return std::nullopt;
    }
    stats_.hits++;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Peeks without touching recency or stats (tests, flush scans).
  [[nodiscard]] const V* Peek(const K& key) const {
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->second;
  }

  /// Mutable access for in-place patching (write-through proxies update
  /// their cached copy instead of dropping it). Refreshes recency; not
  /// counted in hit/miss stats.
  [[nodiscard]] V* Mutable(const K& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Inserts or overwrites; evicts the least-recently-used entry when
  /// over capacity.
  void Put(const K& key, V value) {
    if (capacity_ == 0) return;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
    if (index_.size() > capacity_) {
      stats_.evictions++;
      index_.erase(order_.back().first);
      order_.pop_back();
    }
  }

  /// Drops `key` (counted as an invalidation). Returns true if present.
  bool Invalidate(const K& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    stats_.invalidations++;
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  void Clear() {
    order_.clear();
    index_.clear();
  }

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

  /// Attaches the tallies through `scope` as <prefix>.hits / .misses /
  /// .evictions / .invalidations. The owner declares `scope` after the
  /// cache, so the scope detaches them first.
  void BindMetrics(obs::MetricScope& scope, const std::string& prefix) {
    scope.Attach(prefix + ".hits", &stats_.hits);
    scope.Attach(prefix + ".misses", &stats_.misses);
    scope.Attach(prefix + ".evictions", &stats_.evictions);
    scope.Attach(prefix + ".invalidations", &stats_.invalidations);
  }

  /// Iterates entries most-recent first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [k, v] : order_) fn(k, v);
  }

 private:
  std::size_t capacity_;
  std::list<std::pair<K, V>> order_;  // front = most recent
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator> index_;
  CacheStats stats_;
};

}  // namespace proxy::core

// Batcher — the building block of batching and write-behind proxies.
//
// Items are accumulated and flushed as one unit when either the batch
// reaches `max_items` or `window` elapses since the first queued item.
// Each Add returns a future resolved with the flush outcome of its batch,
// so callers keep per-item completion even though the wire sees batches.
// Drain() is the write-behind barrier every such proxy exposes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "sim/future.h"
#include "sim/task.h"

namespace proxy::core {

/// Batcher tallies as obs::Counter cells (attachable to a
/// MetricsRegistry via Batcher::BindMetrics).
struct BatcherStats {
  obs::Counter items;
  obs::Counter batches;
  obs::Counter size_flushes;    // triggered by max_items
  obs::Counter window_flushes;  // triggered by the timer
  obs::Counter manual_flushes;
};

template <typename Item>
class Batcher {
 public:
  /// Ships one batch; the returned status resolves every item's future.
  using FlushFn = std::function<sim::Co<Status>(std::vector<Item> batch)>;

  Batcher(sim::Scheduler& scheduler, FlushFn flush, std::size_t max_items,
          SimDuration window)
      : scheduler_(&scheduler), flush_(std::move(flush)),
        max_items_(max_items == 0 ? 1 : max_items), window_(window) {}

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Queues an item. The future resolves when its batch lands (or fails).
  sim::Future<Status> Add(Item item) {
    stats_.items++;
    pending_.push_back(std::move(item));
    waiters_.emplace_back(*scheduler_);
    auto future = waiters_.back().future();

    if (pending_.size() >= max_items_) {
      stats_.size_flushes++;
      FlushNow();
    } else if (!timer_.armed()) {
      timer_ = scheduler_->PostAfter(window_, [this] {
        if (!pending_.empty()) {
          stats_.window_flushes++;
          FlushNow();
        }
      });
    }
    return future;
  }

  /// Forces the current batch out (used before a dependent read).
  sim::Future<Status> Flush() {
    if (pending_.empty()) {
      sim::Promise<Status> done(*scheduler_);
      done.Set(Status::Ok());
      return done.future();
    }
    stats_.manual_flushes++;
    // A sentinel waiter shares the batch's fate without adding an item.
    waiters_.emplace_back(*scheduler_);
    auto future = waiters_.back().future();
    FlushNow();
    return future;
  }

  /// Flushes until nothing is pending: items added while a batch is in
  /// flight ride the next round. Stops at the first failed batch.
  sim::Co<Status> Drain() {
    while (!pending_.empty()) {
      const Status st = co_await Flush();
      if (!st.ok()) co_return st;
    }
    co_return Status::Ok();
  }

  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] const BatcherStats& stats() const noexcept { return stats_; }

  /// Attaches the tallies to `registry` as <prefix>.items / .batches /
  /// .size_flushes / .window_flushes / .manual_flushes.
  void BindMetrics(obs::MetricsRegistry& registry, const std::string& prefix) {
    registry.Attach(prefix + ".items", &stats_.items);
    registry.Attach(prefix + ".batches", &stats_.batches);
    registry.Attach(prefix + ".size_flushes", &stats_.size_flushes);
    registry.Attach(prefix + ".window_flushes", &stats_.window_flushes);
    registry.Attach(prefix + ".manual_flushes", &stats_.manual_flushes);
  }
  void DetachMetrics(obs::MetricsRegistry& registry,
                     const std::string& prefix) {
    registry.Detach(prefix + ".items", &stats_.items);
    registry.Detach(prefix + ".batches", &stats_.batches);
    registry.Detach(prefix + ".size_flushes", &stats_.size_flushes);
    registry.Detach(prefix + ".window_flushes", &stats_.window_flushes);
    registry.Detach(prefix + ".manual_flushes", &stats_.manual_flushes);
  }

 private:
  sim::Co<void> RunFlush(std::vector<Item> batch,
                         std::vector<sim::Promise<Status>> waiters) {
    Status st = co_await flush_(std::move(batch));
    for (auto& w : waiters) w.Set(st);
  }

  void FlushNow() {
    timer_.Cancel();
    stats_.batches++;
    std::vector<Item> batch = std::move(pending_);
    std::vector<sim::Promise<Status>> waiters = std::move(waiters_);
    pending_.clear();
    waiters_.clear();
    (void)sim::Spawn(*scheduler_,
                     RunFlush(std::move(batch), std::move(waiters)));
  }

  sim::Scheduler* scheduler_;
  FlushFn flush_;
  std::size_t max_items_;
  SimDuration window_;
  std::vector<Item> pending_;
  std::vector<sim::Promise<Status>> waiters_;
  sim::Timer timer_;  // pending window flush (RAII)
  BatcherStats stats_;
};

}  // namespace proxy::core

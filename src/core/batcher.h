// Batcher — the building block of batching and write-behind proxies.
//
// Items are accumulated and flushed as one unit when either the batch
// reaches `max_items` or `window` elapses since the first queued item.
// Each Add returns a future resolved with the flush outcome of its batch,
// so callers keep per-item completion even though the wire sees batches.
//
// Drain() is the write-behind barrier every such proxy exposes: it ships
// what is buffered and returns once every batch dispatched so far has
// landed, reporting the first failure of any batch that landed since the
// previous Drain. After(op) orders an operation behind that barrier. It
// returns `op` itself when there is nothing to wait for, so a read that
// finds the buffer idle costs what the same read costs without a batcher.
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

/// Batcher tallies as obs::Counter cells (attachable through an
/// obs::MetricScope via Batcher::BindMetrics).
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

  /// Ships what is pending, then waits until no batch is in flight:
  /// items added meanwhile ride another round. Returns only after every
  /// batch dispatched before it returns has landed, with the first
  /// failure of any batch landed since the previous Drain.
  sim::Co<Status> Drain() {
    while (!pending_.empty() || in_flight_ > 0) {
      if (!pending_.empty()) {
        stats_.manual_flushes++;
        FlushNow();
      }
      sim::Promise<bool> landed(*scheduler_);
      idle_.push_back(landed);
      co_await landed.future();
    }
    co_return std::exchange(failure_, Status::Ok());
  }

  /// Runs `op` behind the barrier. When nothing is buffered, in flight
  /// or failed-and-unreported, that is `op` itself. Otherwise it is a
  /// coroutine that drains first; if the drain fails, `op` fails with
  /// its status without running.
  template <typename R>
  sim::Co<R> After(sim::Co<R> op) {
    if (pending_.empty() && in_flight_ == 0 && failure_.ok()) return op;
    return DrainThen(std::move(op));
  }

  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] const BatcherStats& stats() const noexcept { return stats_; }

  /// Attaches the tallies through `scope` as <prefix>.items / .batches /
  /// .size_flushes / .window_flushes / .manual_flushes. The owner
  /// declares `scope` after the batcher, so the scope detaches them
  /// first.
  void BindMetrics(obs::MetricScope& scope, const std::string& prefix) {
    scope.Attach(prefix + ".items", &stats_.items);
    scope.Attach(prefix + ".batches", &stats_.batches);
    scope.Attach(prefix + ".size_flushes", &stats_.size_flushes);
    scope.Attach(prefix + ".window_flushes", &stats_.window_flushes);
    scope.Attach(prefix + ".manual_flushes", &stats_.manual_flushes);
  }

 private:
  template <typename R>
  sim::Co<R> DrainThen(sim::Co<R> op) {
    const Status drained = co_await Drain();
    if (!drained.ok()) co_return drained;
    co_return co_await std::move(op);
  }

  sim::Co<void> RunFlush(std::vector<Item> batch,
                         std::vector<sim::Promise<Status>> waiters) {
    Status st = co_await flush_(std::move(batch));
    if (!st.ok() && failure_.ok()) failure_ = st;
    for (auto& w : waiters) w.Set(st);
    if (--in_flight_ == 0) {
      for (auto& idle : std::exchange(idle_, {})) idle.Set(true);
    }
  }

  void FlushNow() {
    timer_.Cancel();
    stats_.batches++;
    in_flight_++;
    std::vector<Item> batch = std::move(pending_);
    std::vector<sim::Promise<Status>> waiters = std::move(waiters_);
    pending_.clear();
    waiters_.clear();
    sim::Detach(*scheduler_, RunFlush(std::move(batch), std::move(waiters)));
  }

  sim::Scheduler* scheduler_;
  FlushFn flush_;
  std::size_t max_items_;
  SimDuration window_;
  std::vector<Item> pending_;
  std::vector<sim::Promise<Status>> waiters_;
  sim::Timer timer_;  // pending window flush (RAII)
  std::size_t in_flight_ = 0;  // batches dispatched and not yet landed
  std::vector<sim::Promise<bool>> idle_;  // Drains waiting on in_flight_
  Status failure_ = Status::Ok();  // first since the last Drain
  BatcherStats stats_;
};

}  // namespace proxy::core

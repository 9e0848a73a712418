// Rule L11, clean shapes: each await is a standalone initializer or
// statement, and a conditional inside the awaited call's arguments
// awaits nothing itself. Not compiled — exercised by proxy_lint_test.
#include "sim/task.h"

namespace services {

// Core::Acquire's shape: two statements, one per branch.
sim::Co<void> Resolver::Resolve(bool cached, std::string path) {
  Result<ServiceBinding> r = InternalError("unresolved");
  if (cached) {
    Result<ServiceBinding> resolved = co_await cache_.ResolvePath(path);
    r = std::move(resolved);
  } else {
    Result<ServiceBinding> resolved = co_await names_.ResolvePath(path);
    r = std::move(resolved);
  }
  (void)r;
}

// The watchdog's shape: the conditional picks the argument.
sim::Co<void> Replica::WatchdogLoop() {
  for (;;) {
    co_await sim::SleepFor(sched_, syncing_ ? kSyncPeriod : kPeriod);
    const int misses = stale_ ? misses_ + 1 : 0;
    misses_ = misses;
  }
}

}  // namespace services

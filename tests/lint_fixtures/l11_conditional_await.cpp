// Rule L11: a co_await in the condition or either arm of a conditional
// operator, the shape GCC 12 miscompiles (DESIGN.md §7 item 3). Not
// compiled — exercised by proxy_lint_test.
#include "sim/task.h"

namespace services {

sim::Co<void> Resolver::Resolve(bool cached, std::string path) {
  Result<ServiceBinding> r =
      cached ? co_await cache_.ResolvePath(path)  // MARK:l11-arms
             : co_await names_.ResolvePath(path);
  (void)r;
}

sim::Co<int> Resolver::Depth(bool fast) {
  const int slow = 1;
  const int depth = fast ? slow : co_await Probe(slow);  // MARK:l11-one-arm
  co_return depth;
}

sim::Co<int> Resolver::Ready() {
  co_return co_await Probe(0) > 0 ? 1 : 2;  // MARK:l11-condition
}

}  // namespace services

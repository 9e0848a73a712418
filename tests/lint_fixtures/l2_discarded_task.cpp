// Rule L2: a statement-level call whose sim::Co / sim::Future result is
// dropped. A lazy Co destroyed unstarted never runs; a dropped Future
// loses the completion. Not compiled — exercised by proxy_lint_test.
#include "sim/task.h"

namespace services {

sim::Co<void> Spooler::FlushSideline();
sim::Co<void> Spooler::Drain() {
  FlushSideline();  // MARK:l2-discarded
  co_await FlushSideline();            // handled: awaited
  (void)sim::Spawn(*sched_, FlushSideline());  // handled: explicit detach
  sim::Detach(*sched_, FlushSideline());       // handled: detached root
  sim::Co<void> kept = FlushSideline();        // handled: bound to a name
  co_await std::move(kept);
  co_return;
}

// Both typed-call shapes are tasks, also when the callee takes explicit
// template arguments: ProxyBase::Call<T> returns the invocation loop's
// coroutine, and StubBase::TypedCall<Resp> the typed-reply awaitable.
class CounterProxy {
 protected:
  template <typename T, typename Req>
  sim::Co<Result<T>> Call(std::uint32_t method, const Req& req);
  sim::Co<void> Touch(std::int64_t delta);
};

sim::Co<void> CounterProxy::Touch(std::int64_t delta) {
  Call<std::int64_t>(kIncrement, delta);  // MARK:l2-proxy-call
  Result<std::int64_t> value =
      co_await Call<std::int64_t>(kIncrement, delta);  // handled
  (void)value;
}

class NameStub {
 protected:
  template <typename Resp, typename Req>
  rpc::TypedReply<Resp> TypedCall(std::uint32_t method, const Req& req);
  sim::Co<void> Touch(std::string name);
};

sim::Co<void> NameStub::Touch(std::string name) {
  TypedCall<NameRecord>(kLookup, name);  // MARK:l2-typed-reply
  Result<NameRecord> found =
      co_await TypedCall<NameRecord>(kLookup, name);  // handled
  (void)found;
}

// Ambiguous name: Poke is declared void here and Co elsewhere — the
// name-based lookup must stay silent rather than guess.
void Harness::Poke();
sim::Co<void> Worker::Poke(int depth);
void Harness::Step() {
  Poke();  // MARK:l2-ambiguous (must NOT be reported)
}

}  // namespace services

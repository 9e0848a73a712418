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
  sim::Co<void> kept = FlushSideline();        // handled: bound to a name
  co_await std::move(kept);
  co_return;
}

// The typed-reply awaitable (rpc::TypedReply) is a task too, also when
// the callee takes explicit template arguments.
class KvProxy {
 protected:
  template <typename Resp, typename Req>
  rpc::TypedReply<Resp, sim::Co<Result<OwnedBytes>>> Call(
      std::uint32_t method, const Req& req);
  sim::Co<void> Touch(GetRequest req);
};

sim::Co<void> KvProxy::Touch(GetRequest req) {
  Call<GetResponse>(kGet, req);  // MARK:l2-typed-reply
  Result<GetResponse> got = co_await Call<GetResponse>(kGet, req);  // handled
  (void)got;
}

// Ambiguous name: Poke is declared void here and Co elsewhere — the
// name-based lookup must stay silent rather than guess.
void Harness::Poke();
sim::Co<void> Worker::Poke(int depth);
void Harness::Step() {
  Poke();  // MARK:l2-ambiguous (must NOT be reported)
}

}  // namespace services

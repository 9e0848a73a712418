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

// A typed call is a task, also when it names explicit template
// arguments: a proxy's Call<T> returns its invocation loop's coroutine,
// and a stub's TypedCall<Resp> its typed-reply awaitable.
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

// The descriptor forms name no type at the call: ProxyBase::Call and
// StubBase::TypedCall deduce the request and reply types from the
// method's rpc::Method<Req, Resp> declaration, and are tasks all the same.
class KvProxy {
 protected:
  template <typename Req, typename Resp, rpc::RequestOf<Req> A>
  sim::Co<Result<Resp>> Call(rpc::Method<Req, Resp> method, const A& req);
  sim::Co<void> Store(PutRequest req);
};

sim::Co<void> KvProxy::Store(PutRequest req) {
  Call(kPut, req);  // MARK:l2-descriptor-call
  Result<rpc::Void> put = co_await Call(kPut, req);  // handled
  (void)put;
}

class NameClient {
 protected:
  template <typename Req, typename Resp, rpc::RequestOf<Req> A>
  rpc::TypedReply<Resp> TypedCall(rpc::Method<Req, Resp> method,
                                  const A& req);
  sim::Co<void> Find(LookupRequest name);
};

sim::Co<void> NameClient::Find(LookupRequest name) {
  TypedCall(kLookup, name);  // MARK:l2-descriptor-typed-reply
  Result<NameRecord> found = co_await TypedCall(kLookup, name);  // handled
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

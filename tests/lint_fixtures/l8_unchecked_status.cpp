// Rule L8: a statement-level call discarding a core::Status / Result.
// The direct form is a compile error in-tree ([[nodiscard]] + Werror),
// but the awaited form is the compiler's blind spot: `co_await Fn();`
// where Fn returns Co<Status> discards the status that comes out of
// await_resume, and no diagnostic fires. Not compiled — exercised by
// proxy_lint_test.
#include "common/status.h"

namespace services {

class Store {
 public:
  Status Flush();
  sim::Co<Status> Sync();
  sim::Co<Result<bool>> Remove(std::string key);
  sim::Co<void> Tick();
  sim::Co<void> Run();
};

sim::Co<void> Store::Run() {
  Flush();          // MARK:l8-direct
  co_await Sync();  // MARK:l8-awaited

  (void)Flush();                          // handled: explicit drop
  Status st = Flush();                    // handled: bound
  if (!st.ok()) co_return;
  Status synced = co_await Sync();        // handled: bound awaited
  (void)synced;
  Result<bool> gone = co_await Remove("k");  // handled: bound awaited
  (void)gone;
  co_await Tick();  // Co<void>: nothing to discard
  co_return;
}

// Both typed-call shapes always resume with a Result: awaiting either
// as a statement drops the call's failure, also when the call names
// explicit template arguments. A proxy's Call<T> returns its invocation
// loop's coroutine, a stub's TypedCall<Resp> its typed-reply awaitable.
class KvProxy {
 protected:
  template <typename T, typename Req>
  sim::Co<Result<T>> Call(std::uint32_t method, const Req& req);
  sim::Co<void> Write(PutRequest req);
};

sim::Co<void> KvProxy::Write(PutRequest req) {
  co_await Call<rpc::Void>(kPut, req);  // MARK:l8-proxy-call
  Result<rpc::Void> put = co_await Call<rpc::Void>(kPut, req);  // handled
  (void)put;
}

class NameStub {
 protected:
  template <typename Resp, typename Req>
  rpc::TypedReply<Resp> TypedCall(std::uint32_t method, const Req& req);
  sim::Co<void> Register(RegisterRequest req);
};

sim::Co<void> NameStub::Register(RegisterRequest req) {
  co_await TypedCall<rpc::Void>(kRegister, req);  // MARK:l8-typed-reply
  Result<rpc::Void> done =
      co_await TypedCall<rpc::Void>(kRegister, req);  // handled
  (void)done;
}

// The descriptor forms name no type at the call: ProxyBase::Call and
// StubBase::TypedCall deduce the request and reply types from the
// method's rpc::Method<Req, Resp> declaration, and resume with a Result
// all the same.
class CacheProxy {
 protected:
  template <typename Req, typename Resp, rpc::RequestOf<Req> A>
  sim::Co<Result<Resp>> Call(rpc::Method<Req, Resp> method, const A& req);
  sim::Co<void> Write(PutRequest req);
};

sim::Co<void> CacheProxy::Write(PutRequest req) {
  co_await Call(kPut, req);  // MARK:l8-descriptor-call
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
  co_await TypedCall(kLookup, name);  // MARK:l8-descriptor-typed-reply
  Result<NameRecord> found = co_await TypedCall(kLookup, name);  // handled
  (void)found;
}

}  // namespace services

// Rule L9 (forward shape): a sim::Co function or lambda whose only await
// is its last statement, `co_return co_await callee(...);`, and whose
// other statements only set up locals. The frame suspends only to relay
// the callee's result: a frame and a completion event that do nothing.
// Not compiled — exercised by proxy_lint_test.
#include "core/proxy.h"

namespace services {

class KvStub : public core::ProxyBase {
 public:
  sim::Co<Result<rpc::Void>> Put(std::string key, std::string value);
};

sim::Co<Result<rpc::Void>> KvStub::Put(std::string key,  // MARK:l9-stub
                                       std::string value) {
  PutRequest req{std::move(key), std::move(value), ObjectId{}};
  co_return co_await Call<rpc::Void>(kvwire::kPut, std::move(req));
}

class NameClient : public rpc::StubBase {
 public:
  sim::Co<Result<rpc::Void>> Register(std::string name, NameRecord record);
  sim::Co<Result<rpc::Void>> RegisterService(std::string name,
                                             core::ServiceBinding binding);
};

// Assignments into a local it declared still only set the call up.
sim::Co<Result<rpc::Void>> NameClient::RegisterService(  // MARK:l9-setup
    std::string name, core::ServiceBinding binding) {
  NameRecord record;
  record.kind = RecordKind::kService;
  record.binding = binding;
  co_return co_await Register(std::move(name), std::move(record));
}

void Drive(core::Runtime& rt, KvStub& kv) {
  auto put = [&]() -> sim::Co<Result<rpc::Void>> {  // MARK:l9-lambda
    co_return co_await kv.Put("k", "v");
  };
  (void)rt.Run(put());
}

}  // namespace services

#include "services/counter.h"

#include "serde/reader.h"
#include "serde/writer.h"

namespace proxy::services {

using counterwire::IncrementRequest;

Bytes CounterService::SnapshotState() const {
  serde::Writer w;
  w.WriteSigned(value_);
  return w.Take();
}

Status CounterService::RestoreState(BytesView state) {
  serde::Reader r(state);
  PROXY_RETURN_IF_ERROR(r.ReadSigned(value_));
  return r.ExpectEnd();
}

std::shared_ptr<rpc::Dispatch> MakeCounterDispatch(
    std::shared_ptr<CounterService> impl) {
  auto dispatch = std::make_shared<rpc::Dispatch>();
  rpc::RegisterTyped(*dispatch, counterwire::kIncrement,
                     [impl](IncrementRequest req) {
                       return impl->Add(req.delta);
                     });
  rpc::RegisterTyped(*dispatch, counterwire::kRead,
                     [impl](rpc::Void) { return impl->value(); });
  return dispatch;
}

Result<CounterExport> ExportCounterService(core::Context& context,
                                           std::uint32_t protocol,
                                           std::int64_t initial) {
  auto impl = std::make_shared<CounterService>(initial);
  auto dispatch = MakeCounterDispatch(impl);
  PROXY_ASSIGN_OR_RETURN(
      auto exported,
      core::ServiceExport<ICounter>::Create(context, impl, dispatch, protocol,
                                            impl));
  return CounterExport{std::move(impl), exported.binding()};
}

sim::Co<Result<std::int64_t>> CounterStub::Increment(std::int64_t delta) {
  return Call(counterwire::kIncrement, IncrementRequest{delta});
}

sim::Co<Result<std::int64_t>> CounterStub::Read() {
  return Call(counterwire::kRead, rpc::Void{});
}

sim::Co<Result<std::shared_ptr<ICounter>>> CounterDsmProxy::EnsureLocal() {
  core::Context& ctx = context();
  const InterfaceId iface = InterfaceIdOf(ICounter::kInterfaceName);

  for (int attempt = 0; attempt < 3; ++attempt) {
    // Resident already? (Either pulled earlier, or by a sibling proxy.)
    if (const auto* entry = ctx.FindLocal(binding().object)) {
      if (entry->iface != iface) {
        co_return FailedPreconditionError("local object has wrong interface");
      }
      co_return std::static_pointer_cast<ICounter>(entry->impl);
    }

    Result<core::ServiceBinding> pulled =
        co_await ctx.migration().Pull(binding());
    if (pulled.ok()) {
      pulls_++;
      continue;  // loop re-probes the local registry
    }
    if (pulled.status().code() == StatusCode::kNotFound) {
      // The object moved since we last saw it: a plain call follows the
      // forwarding chain and refreshes our binding, then we retry.
      Result<std::int64_t> probe =
          co_await Call(counterwire::kRead, rpc::Void{});
      if (!probe.ok()) co_return probe.status();
      continue;
    }
    co_return pulled.status();
  }
  co_return UnavailableError("object kept moving; pull did not converge");
}

sim::Co<Result<std::int64_t>> CounterDsmProxy::Increment(std::int64_t delta) {
  Result<std::shared_ptr<ICounter>> local = co_await EnsureLocal();
  if (!local.ok()) co_return local.status();
  co_return co_await (*local)->Increment(delta);
}

sim::Co<Result<std::int64_t>> CounterDsmProxy::Read() {
  Result<std::shared_ptr<ICounter>> local = co_await EnsureLocal();
  if (!local.ok()) co_return local.status();
  co_return co_await (*local)->Read();
}

}  // namespace proxy::services

#include "core/migration.h"

#include "common/log.h"
#include "serde/traits.h"

namespace proxy::core {

Context::~Context() = default;

MigrationManager& Context::migration() {
  if (!migration_) migration_ = std::make_unique<MigrationManager>(*this);
  return *migration_;
}

MigrationManager::MigrationManager(Context& context)
    : context_(&context), dispatch_(std::make_shared<rpc::Dispatch>()) {
  rpc::RegisterTyped(*dispatch_, kRelease, [this](ReleaseRequest req) {
    return HandleRelease(req);
  });
  rpc::RegisterTyped(*dispatch_, kAccept, [this](AcceptRequest req) {
    return HandleAccept(std::move(req));
  });
  (void)context_->server().ExportObject(kMigrationControlObject, dispatch_);
}

Result<MigrationManager::ReleaseResponse> MigrationManager::Evict(
    ObjectId id, const net::Address& new_home) {
  const Context::LocalEntry* entry = context_->FindLocal(id);
  if (entry == nullptr) {
    return NotFoundError("object not local: " + id.ToString());
  }
  if (entry->migratable == nullptr) {
    return FailedPreconditionError("object is not migratable");
  }
  // Copy what we need out of the registry entry: UnregisterLocal below
  // frees it.
  const InterfaceId iface = entry->iface;
  ReleaseResponse resp;
  resp.iface = iface;
  resp.protocol = entry->protocol;
  resp.state = entry->migratable->SnapshotState();

  // Withdraw the object and leave a forwarding hint: proxies that still
  // hold the old binding learn the new home on their next call.
  (void)context_->server().RemoveObject(id);
  context_->UnregisterLocal(id);

  ServiceBinding forward;
  forward.server = new_home;
  forward.object = id;
  forward.interface = iface;
  forward.protocol = resp.protocol;
  context_->server().SetForwarding(id, serde::EncodeToBytes(forward));

  stats_.state_bytes_moved += resp.state.size();
  return resp;
}

sim::Co<Result<ServiceBinding>> MigrationManager::PushTo(ObjectId id,
                                                         net::Address target) {
  // Snapshot and withdraw first; if the target refuses, reinstall via the
  // registry (the state is still in hand).
  const Context::LocalEntry* entry = context_->FindLocal(id);
  if (entry == nullptr) {
    co_return NotFoundError("object not local: " + id.ToString());
  }
  const InterfaceId iface = entry->iface;
  Result<ReleaseResponse> evicted = Evict(id, target);
  if (!evicted.ok()) co_return evicted.status();

  AcceptRequest req;
  req.object = id;
  req.iface = iface;
  req.protocol = evicted->protocol;
  req.state = evicted->state;  // keep a copy for rollback

  // A migration that can't complete promptly should roll back, not hold
  // the withdrawn object in limbo while retries grind on.
  const rpc::CallOptions bounded{.deadline = Seconds(2)};
  Result<ServiceBinding> moved = co_await rpc::TypedCall(
      context_->client(), net::Address{target.node, target.port},
      kMigrationControlObject, kAccept, req, bounded);
  if (!moved.ok()) {
    // Roll back: rebuild locally from the snapshot under the same id and
    // drop the (now wrong) forwarding hint.
    context_->server().ClearForwarding(id);
    (void)ServerObjectFactoryRegistry::Instance().Create(
        *context_, iface, id, evicted->protocol, std::move(evicted->state));
    co_return moved.status();
  }
  stats_.pushed++;
  PROXY_LOG(kInfo, context_->scheduler().now(), "migration",
            "pushed " << id.ToString() << " to " << moved->server.ToString());
  co_return moved;
}

sim::Co<Result<ServiceBinding>> MigrationManager::Pull(
    ServiceBinding binding) {
  ReleaseRequest req;
  req.object = binding.object;
  req.new_home = context_->server_address();

  const rpc::CallOptions bounded{.deadline = Seconds(2)};
  Result<ReleaseResponse> resp = co_await rpc::TypedCall(
      context_->client(), binding.server, kMigrationControlObject, kRelease,
      req, bounded);
  if (!resp.ok()) co_return resp.status();

  Result<ServiceBinding> rebuilt =
      ServerObjectFactoryRegistry::Instance().Create(
          *context_, resp->iface, binding.object, resp->protocol,
          std::move(resp->state));
  if (!rebuilt.ok()) co_return rebuilt.status();
  stats_.pulled++;
  PROXY_LOG(kInfo, context_->scheduler().now(), "migration",
            "pulled " << binding.object.ToString() << " from "
                      << binding.server.ToString());
  co_return *rebuilt;
}

Result<MigrationManager::ReleaseResponse> MigrationManager::HandleRelease(
    const ReleaseRequest& req) {
  Result<ReleaseResponse> resp = Evict(req.object, req.new_home);
  if (resp.ok()) stats_.released++;
  return resp;
}

Result<ServiceBinding> MigrationManager::HandleAccept(AcceptRequest req) {
  Result<ServiceBinding> rebuilt =
      ServerObjectFactoryRegistry::Instance().Create(
          *context_, req.iface, req.object, req.protocol,
          std::move(req.state));
  if (rebuilt.ok()) stats_.accepted++;
  return rebuilt;
}

}  // namespace proxy::core

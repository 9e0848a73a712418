#include "naming/server.h"

#include "rpc/stub.h"

namespace proxy::naming {

NameServer::NameServer(rpc::RpcServer& server)
    : server_(&server), dispatch_(std::make_shared<rpc::Dispatch>()) {
  rpc::RegisterTyped(*dispatch_, kRegister, [this](RegisterRequest req) {
    return HandleRegister(std::move(req));
  });
  rpc::RegisterTyped(*dispatch_, kLookup,
                     [this](LookupRequest req) { return HandleLookup(req); });
  rpc::RegisterTyped(*dispatch_, kUnregister, [this](UnregisterRequest req) {
    return HandleUnregister(req);
  });
  rpc::RegisterTyped(*dispatch_, kList,
                     [this](ListRequest req) { return HandleList(req); });
  // The bootstrap capability: the only well-known object in the system.
  (void)server_->ExportObject(kNameServiceObject, dispatch_);
}

Status NameServer::RegisterDirect(const std::string& name, NameRecord record,
                                  bool overwrite) {
  if (name.empty()) {
    return InvalidArgumentError("record name must not be empty");
  }
  if (!overwrite && records_.contains(name) && Sweep(name)) {
    return AlreadyExistsError("name already bound: " + name);
  }
  Entry entry;
  entry.expires_at = record.lease_ns == 0
                         ? 0
                         : server_->scheduler().now() + record.lease_ns;
  entry.record = std::move(record);
  records_[name] = std::move(entry);
  return Status::Ok();
}

bool NameServer::Sweep(const std::string& name) {
  const auto it = records_.find(name);
  if (it == records_.end()) return false;
  if (it->second.expires_at != 0 &&
      it->second.expires_at <= server_->scheduler().now()) {
    records_.erase(it);
    return false;
  }
  return true;
}

Result<rpc::Void> NameServer::HandleRegister(RegisterRequest req) {
  const Status st = RegisterDirect(req.name, std::move(req.record),
                                   req.overwrite);
  if (!st.ok()) return st;
  return rpc::Void{};
}

Result<NameRecord> NameServer::HandleLookup(const LookupRequest& req) {
  if (!Sweep(req.name)) {
    return NotFoundError("unbound name: " + req.name);
  }
  return records_.at(req.name).record;
}

Result<rpc::Void> NameServer::HandleUnregister(const UnregisterRequest& req) {
  if (records_.erase(req.name) == 0) {
    return NotFoundError("unbound name: " + req.name);
  }
  return rpc::Void{};
}

Result<std::vector<std::pair<std::string, NameRecord>>> NameServer::HandleList(
    const ListRequest& req) const {
  std::vector<std::pair<std::string, NameRecord>> entries;
  // Expired entries are skipped but only erased by their own lookups, so
  // listing stays iterator-safe.
  const SimTime now = server_->scheduler().now();
  for (const auto& [name, entry] : records_) {
    if (name.compare(0, req.prefix.size(), req.prefix) != 0) continue;
    if (entry.expires_at != 0 && entry.expires_at <= now) continue;
    entries.emplace_back(name, entry.record);
  }
  return entries;
}

}  // namespace proxy::naming

// Name server: the directory service of the runtime.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "naming/protocol.h"
#include "rpc/server.h"
#include "rpc/stub.h"

namespace proxy::naming {

class NameServer {
 public:
  /// Exports the name service on `server` under kNameServiceObject.
  explicit NameServer(rpc::RpcServer& server);

  NameServer(const NameServer&) = delete;
  NameServer& operator=(const NameServer&) = delete;

  /// Direct (in-process) registration, used when wiring a topology up
  /// before any client can speak RPC.
  Status RegisterDirect(const std::string& name, NameRecord record,
                        bool overwrite = false);

 private:
  struct Entry {
    NameRecord record;
    SimTime expires_at = 0;  // 0 = never
  };

  /// Drops `name` if its lease expired; returns true if still live.
  bool Sweep(const std::string& name);

  Result<rpc::Void> HandleRegister(RegisterRequest req);
  Result<NameRecord> HandleLookup(const LookupRequest& req);
  Result<rpc::Void> HandleUnregister(const UnregisterRequest& req);
  Result<std::vector<std::pair<std::string, NameRecord>>> HandleList(
      const ListRequest& req) const;

  rpc::RpcServer* server_;
  std::shared_ptr<rpc::Dispatch> dispatch_;
  std::map<std::string, Entry> records_;
};

}  // namespace proxy::naming

// Object migration.
//
// Each participating context runs a MigrationManager, which exports a
// control object under a per-context well-known id. Two operations move
// an object O from context A to context B, keeping O's object id stable:
//
//   push (A initiates): A snapshots O, calls B.Accept(id, iface, state);
//     B rebuilds O via the ServerObjectFactoryRegistry and exports it;
//     A withdraws its export and installs a forwarding hint.
//
//   pull (B initiates): B calls A.Release(id); A snapshots O, withdraws
//     it, installs the forwarding hint toward B *optimistically*, and
//     returns the state; B rebuilds and exports.
//
// Proxies never see any of this: their next call to A gets OBJECT_MOVED
// plus the new binding and retries transparently (ProxyBase::CallRaw).
//
// The "always-migrate" (distributed-virtual-memory-like) baseline in the
// experiments is built from pull: a DSM-style proxy pulls the object to
// its own context before operating on it.
#pragma once

#include <memory>

#include "core/binding.h"
#include "core/factory.h"
#include "core/runtime.h"
#include "rpc/server.h"
#include "rpc/stub.h"
#include "sim/task.h"

namespace proxy::core {

/// Well-known control object id every MigrationManager exports under.
inline constexpr ObjectId kMigrationControlObject{0x6d696772ULL,
                                                  0x6374726cULL};

struct MigrationStats {
  std::uint64_t pushed = 0;
  std::uint64_t pulled = 0;
  std::uint64_t accepted = 0;
  std::uint64_t released = 0;
  std::uint64_t state_bytes_moved = 0;
};

class MigrationManager {
 public:
  /// Exports the control object in `context`.
  explicit MigrationManager(Context& context);

  MigrationManager(const MigrationManager&) = delete;
  MigrationManager& operator=(const MigrationManager&) = delete;

  /// Pushes local object `id` to the context whose RPC server is at
  /// `target`. Returns the object's new binding.
  sim::Co<Result<ServiceBinding>> PushTo(ObjectId id, net::Address target);

  /// Pulls the object described by `binding` into this context. Returns
  /// the new (local) binding.
  sim::Co<Result<ServiceBinding>> Pull(ServiceBinding binding);

  [[nodiscard]] const MigrationStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] Context& context() noexcept { return *context_; }

 private:
  struct ReleaseRequest {
    ObjectId object;
    net::Address new_home;  // forwarding target (the puller's server)
    PROXY_SERDE_FIELDS(object, new_home)
  };
  struct ReleaseResponse {
    InterfaceId iface;
    std::uint32_t protocol = 1;
    Bytes state;
    PROXY_SERDE_FIELDS(iface, protocol, state)
  };
  struct AcceptRequest {
    ObjectId object;
    InterfaceId iface;
    std::uint32_t protocol = 1;
    Bytes state;
    PROXY_SERDE_FIELDS(object, iface, protocol, state)
  };

  static constexpr rpc::Method<ReleaseRequest, ReleaseResponse> kRelease{1};
  /// Answers the object's binding in its new home.
  static constexpr rpc::Method<AcceptRequest, ServiceBinding> kAccept{2};

  /// Snapshots and withdraws local object `id`; installs forwarding to
  /// `new_home`. Core of both push (local half) and Release (remote half).
  Result<ReleaseResponse> Evict(ObjectId id, const net::Address& new_home);

  Result<ReleaseResponse> HandleRelease(const ReleaseRequest& req);
  Result<ServiceBinding> HandleAccept(AcceptRequest req);

  Context* context_;
  std::shared_ptr<rpc::Dispatch> dispatch_;
  MigrationStats stats_;
};

}  // namespace proxy::core

// Runtime and Context: the structuring concepts of the proxy principle.
//
// A Runtime is one simulated distributed system: the scheduler, the
// network, the nodes, and the contexts living on them. A Context is a
// protection domain (address space) on one node. Objects live inside
// contexts; a client in one context can reach an object in another only
// through a proxy bound via the runtime — there is no way to conjure a
// reference out of thin air, which is what makes references capabilities.
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/id.h"
#include "common/rng.h"
#include "core/binding.h"
#include "naming/client.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "naming/server.h"
#include "net/endpoint.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace proxy::core {

class Runtime;
class MigrationManager;

/// Marker interface for objects whose state can be captured and rebuilt
/// elsewhere — the contract migration needs from a server implementation.
class IMigratable {
 public:
  virtual ~IMigratable() = default;
  /// Serializes the object's full state.
  [[nodiscard]] virtual Bytes SnapshotState() const = 0;
};

class Context {
 public:
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;
  ~Context();  // defined in migration.cpp (MigrationManager completeness)

  [[nodiscard]] ContextId id() const noexcept { return id_; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] Runtime& runtime() noexcept { return *runtime_; }
  [[nodiscard]] sim::Scheduler& scheduler() noexcept;
  [[nodiscard]] rpc::RpcServer& server() noexcept { return *rpc_server_; }
  [[nodiscard]] rpc::RpcClient& client() noexcept { return *rpc_client_; }

  /// Address of this context's RPC server endpoint.
  [[nodiscard]] net::Address server_address() const noexcept {
    return server_addr_;
  }

  /// Name-service clients of this context (plain and caching).
  [[nodiscard]] naming::NameClient& names() noexcept { return *names_; }
  [[nodiscard]] naming::CachingNameClient& cached_names() noexcept {
    return *cached_names_;
  }

  /// The Runtime-wide instrumentation surfaces (one registry, one span
  /// recorder per simulated system — DESIGN.md §12).
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept;
  [[nodiscard]] obs::SpanRecorder& spans() noexcept;

  /// Mints a fresh sparse object id (unforgeable by construction).
  ObjectId MintObjectId();

  /// Registers an implementation object, exported under proxy protocol
  /// `protocol`, for the direct (same-context) invocation path and for
  /// migration, which re-exports it under the same protocol. `migratable`
  /// may be null.
  Status RegisterLocal(ObjectId id, InterfaceId iface, std::uint32_t protocol,
                       std::shared_ptr<void> impl,
                       std::shared_ptr<IMigratable> migratable = nullptr);

  void UnregisterLocal(ObjectId id);

  struct LocalEntry {
    InterfaceId iface;
    std::uint32_t protocol = 1;
    std::shared_ptr<void> impl;
    std::shared_ptr<IMigratable> migratable;
  };

  [[nodiscard]] const LocalEntry* FindLocal(ObjectId id) const;

  [[nodiscard]] std::size_t local_object_count() const noexcept {
    return locals_.size();
  }

  /// This context's migration manager, created (and its control object
  /// exported) on first use. Defined in migration.cpp.
  MigrationManager& migration();

  /// Crash-stop hook. Services register handlers so volatile state dies
  /// with the node: they run when the node crash-stops (after the network
  /// cut, before RPC state is torn down — mark yourself dead first), in
  /// registration order, and stay registered across crashes — a context
  /// may crash and restart many times per run.
  void OnCrash(std::function<void()> handler) {
    crash_handlers_.push_back(std::move(handler));
  }

  [[nodiscard]] bool crashed() const noexcept { return crashed_; }

 private:
  friend class Runtime;

  void NotifyCrash();
  void NotifyRestart();
  Context(Runtime& runtime, ContextId id, NodeId node, std::string name,
          net::NodeStack& stack, std::uint64_t client_nonce,
          const net::Address& name_server);

  Runtime* runtime_;
  ContextId id_;
  NodeId node_;
  std::string name_;
  net::Endpoint* server_endpoint_;
  net::Endpoint* client_endpoint_;
  net::Address server_addr_;
  std::unique_ptr<rpc::RpcServer> rpc_server_;
  std::unique_ptr<rpc::RpcClient> rpc_client_;
  std::unique_ptr<naming::NameClient> names_;
  std::unique_ptr<naming::CachingNameClient> cached_names_;
  std::unique_ptr<MigrationManager> migration_;
  std::unordered_map<ObjectId, LocalEntry> locals_;
  std::vector<std::function<void()>> crash_handlers_;
  bool crashed_ = false;
  obs::MetricScope metric_scope_;  // after the components it attaches
};

class Runtime {
 public:
  struct Params {
    std::uint64_t seed = 42;
    sim::LinkParams default_link;     // inter-node link characteristics
  };

  Runtime() : Runtime(Params{}) {}
  explicit Runtime(Params params);
  /// Destroys every coroutine root still parked, then the contexts,
  /// services, network and scheduler. Objects that hold a Context or a
  /// proxy from this runtime must die first.
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] sim::Network& network() noexcept { return network_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// The one MetricsRegistry of this simulated system: every context's
  /// RPC runtime, every proxy, cache and replica reports here, so a
  /// seeded run exports byte-identical numbers on every replay.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  /// The one SpanRecorder (disabled until spans().set_enabled(true)).
  [[nodiscard]] obs::SpanRecorder& spans() noexcept { return spans_; }

  /// Adds a node (a machine) to the system.
  NodeId AddNode(std::string name);

  /// Creates a context (protection domain) on `node`.
  Context& CreateContext(NodeId node, std::string name);

  /// Creates a context on `node` hosting the system name service on the
  /// conventional port. Must be called once, before contexts bind names.
  Context& StartNameService(NodeId node);

  /// Crash-stops `node`: in-flight messages addressed to it are lost
  /// (what it sent before the crash still arrives), its contexts' crash
  /// handlers run, outstanding RPCs fail locally and server-side
  /// executions are abandoned. The node stays dark until RestartNode.
  /// Crashing the name-service node is not supported.
  void CrashNode(NodeId node);

  /// Brings a crashed node back with empty volatile state (crash-stop,
  /// then rejoin): restart handlers run so services can resync.
  void RestartNode(NodeId node);

  [[nodiscard]] net::Address name_server_address() const {
    return name_server_addr_;
  }
  [[nodiscard]] naming::NameServer* name_server() noexcept {
    return name_server_.get();
  }

  [[nodiscard]] const std::vector<std::unique_ptr<Context>>& contexts()
      const noexcept {
    return contexts_;
  }

  /// The per-node network stack. Lets harness code (the chaos reply
  /// spoofer) open endpoints on a node outside any context.
  [[nodiscard]] net::NodeStack& stack(NodeId node) {
    assert(node.value() < stacks_.size() && "unknown node");
    return *stacks_[node.value()];
  }

  /// Locates an object in any context on `node`. Returns (context,
  /// entry) or nullopt.
  struct LocalHit {
    Context* context;
    const Context::LocalEntry* entry;
  };
  [[nodiscard]] std::optional<LocalHit> FindObjectOnNode(NodeId node,
                                                         ObjectId id);

  /// Drives the scheduler until `future.ready()` — the bridge between
  /// driver code (tests, examples, benches) and the simulated world.
  template <typename T>
  T Await(sim::Future<T> future) {
    scheduler_.RunUntil([&] { return future.ready(); });
    return future.take();
  }

  /// Spawns a coroutine and drives the scheduler to its completion.
  template <typename T>
  T Run(sim::Co<T> co) {
    return Await(sim::Spawn(scheduler_, std::move(co)));
  }
  void Run(sim::Co<void> co) {
    (void)Await(sim::Spawn(scheduler_, std::move(co)));
  }

 private:
  Params params_;
  sim::Scheduler scheduler_;
  sim::Network network_;
  Rng rng_;
  obs::MetricsRegistry metrics_;
  obs::SpanRecorder spans_;
  std::vector<std::unique_ptr<net::NodeStack>> stacks_;  // by node id
  std::vector<std::unique_ptr<Context>> contexts_;
  std::unique_ptr<rpc::RpcServer> name_server_rpc_;
  std::unique_ptr<naming::NameServer> name_server_;
  net::Address name_server_addr_{};
};

}  // namespace proxy::core

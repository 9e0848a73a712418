#include "core/runtime.h"

#include <cassert>

#include "common/log.h"
#include "core/migration.h"  // completes MigrationManager for unique_ptr

namespace proxy::core {

Context::Context(Runtime& runtime, ContextId id, NodeId node, std::string name,
                 net::NodeStack& stack, std::uint64_t client_nonce,
                 const net::Address& name_server)
    : runtime_(&runtime), id_(id), node_(node), name_(std::move(name)),
      metric_scope_(runtime.metrics()) {
  server_endpoint_ = stack.OpenEphemeral();
  client_endpoint_ = stack.OpenEphemeral();
  server_addr_ = server_endpoint_->address();
  rpc_server_ = std::make_unique<rpc::RpcServer>(*server_endpoint_);
  rpc_client_ = std::make_unique<rpc::RpcClient>(*client_endpoint_, client_nonce);
  names_ = std::make_unique<naming::NameClient>(*rpc_client_, name_server);
  cached_names_ = std::make_unique<naming::CachingNameClient>(
      *rpc_client_, name_server);
  // Every context reports into the runtime's one registry and recorder.
  rpc_client_->BindMetrics(metric_scope_);
  rpc_server_->BindMetrics(metric_scope_);
  rpc_server_->set_span_recorder(&runtime.spans());
  cached_names_->BindMetrics(metric_scope_);
}

sim::Scheduler& Context::scheduler() noexcept { return runtime_->scheduler(); }

obs::MetricsRegistry& Context::metrics() noexcept {
  return runtime_->metrics();
}

obs::SpanRecorder& Context::spans() noexcept { return runtime_->spans(); }

ObjectId Context::MintObjectId() {
  ObjectId id;
  do {
    id.hi = runtime_->rng().NextU64();
    id.lo = runtime_->rng().NextU64();
  } while (id.IsNil());
  return id;
}

Status Context::RegisterLocal(ObjectId id, InterfaceId iface,
                              std::uint32_t protocol,
                              std::shared_ptr<void> impl,
                              std::shared_ptr<IMigratable> migratable) {
  if (id.IsNil() || impl == nullptr) {
    return InvalidArgumentError("nil object id or null implementation");
  }
  const auto [it, inserted] = locals_.emplace(
      id, LocalEntry{iface, protocol, std::move(impl), std::move(migratable)});
  (void)it;
  if (!inserted) return AlreadyExistsError("object already registered");
  return Status::Ok();
}

void Context::UnregisterLocal(ObjectId id) { locals_.erase(id); }

const Context::LocalEntry* Context::FindLocal(ObjectId id) const {
  const auto it = locals_.find(id);
  return it == locals_.end() ? nullptr : &it->second;
}

void Context::NotifyCrash() {
  crashed_ = true;
  // Services first (they mark themselves dead), then the RPC runtime:
  // outstanding calls fail so coroutines blocked on them unwind, and
  // in-flight server executions are abandoned along with the reply cache.
  for (auto& handler : crash_handlers_) handler();
  rpc_client_->Reset(UnavailableError("node crashed"));
  rpc_server_->Reset();
  cached_names_->Clear();
}

void Context::NotifyRestart() { crashed_ = false; }

Runtime::Runtime(Params params)
    : params_(params),
      network_(scheduler_, params.seed),
      rng_(SplitMix64(params.seed ^ 0x70726f7879ULL).Next()) {
  network_.SetDefaultLink(params.default_link);
  // Driver code creates this runtime's first coroutines before any event
  // runs (a forward creates its callee's frame when it is called): they
  // come from this scheduler's slabs too, not from the heap.
  scheduler_.MakeCurrent();
}

Runtime::~Runtime() {
  // Parked roots first: destroying one runs its frames' destructors,
  // which may still reach into contexts, services and the network. Those
  // die afterwards (members, in reverse order), and the scheduler and its
  // frame slabs last.
  scheduler_.DestroyRoots();
}

NodeId Runtime::AddNode(std::string name) {
  const NodeId id = network_.AddNode(std::move(name));
  stacks_.push_back(std::make_unique<net::NodeStack>(network_, id));
  return id;
}

Context& Runtime::CreateContext(NodeId node, std::string name) {
  assert(node.value() < stacks_.size() && "unknown node");
  const ContextId id(static_cast<std::uint32_t>(contexts_.size()));
  auto ctx = std::unique_ptr<Context>(
      new Context(*this, id, node, std::move(name), *stacks_[node.value()],
                  rng_.NextU64(), name_server_addr_));
  contexts_.push_back(std::move(ctx));
  return *contexts_.back();
}

Context& Runtime::StartNameService(NodeId node) {
  assert(name_server_ == nullptr && "name service already started");
  // The name server listens on the conventional port so that other
  // contexts can construct their bootstrap proxy from (node, port) alone.
  net::NodeStack& stack = *stacks_[node.value()];
  net::Endpoint* ep = stack.OpenEndpoint(naming::kNameServicePort);
  assert(ep != nullptr && "name service port already taken");

  Context& ctx = CreateContext(node, "name-service");
  // Replace the context's server with one on the well-known port.
  auto server = std::make_unique<rpc::RpcServer>(*ep);
  name_server_ = std::make_unique<naming::NameServer>(*server);
  // The context keeps its regular server too (for migration etc.); the
  // name service itself lives on the well-known endpoint.
  name_server_rpc_ = std::move(server);
  name_server_addr_ = ep->address();

  // Contexts created before the name service learn the address lazily via
  // their NameClient rebind; contexts created after get it at birth.
  for (auto& existing : contexts_) {
    existing->names().Rebind(name_server_addr_, naming::kNameServiceObject);
    existing->cached_names().inner().Rebind(name_server_addr_,
                                            naming::kNameServiceObject);
  }
  return ctx;
}

void Runtime::CrashNode(NodeId node) {
  assert((name_server_ == nullptr ||
          name_server_addr_.node != node) &&
         "crashing the name-service node is not supported");
  if (network_.IsNodeCrashed(node)) return;
  // Cut the network first so nothing a crash handler does can leak a
  // message out of the dying node.
  network_.SetNodeCrashed(node, true);
  for (auto& ctx : contexts_) {
    if (ctx->node() == node) ctx->NotifyCrash();
  }
}

void Runtime::RestartNode(NodeId node) {
  if (!network_.IsNodeCrashed(node)) return;
  network_.SetNodeCrashed(node, false);
  for (auto& ctx : contexts_) {
    if (ctx->node() == node) ctx->NotifyRestart();
  }
}

std::optional<Runtime::LocalHit> Runtime::FindObjectOnNode(NodeId node,
                                                           ObjectId id) {
  for (auto& ctx : contexts_) {
    if (ctx->node() != node) continue;
    if (const auto* entry = ctx->FindLocal(id)) {
      return LocalHit{ctx.get(), entry};
    }
  }
  return std::nullopt;
}

}  // namespace proxy::core

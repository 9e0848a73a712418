// Proxy installation: factory registries and Acquire.
//
// In the 1986 system, binding to a service causes proxy *code* to be
// installed in the client's context, chosen by the service. C++ cannot
// ship native code safely, so the equivalent mechanism is a registry:
// services register, per (interface, protocol-version), a factory that
// instantiates their proxy inside a given context. Acquire<I>() resolves
// a name to a ServiceBinding, verifies the interface, and asks the
// registry for the proxy the *service* advertised — the client names only
// the abstract interface I. Acquire is the ONE acquisition path: cached
// vs authoritative resolution, direct/local shortcut, protocol override
// and call-policy tuning are all AcquireOptions knobs, not separate APIs.
//
// A parallel registry of server-object factories serves migration: a
// context receiving an object rebuilds the implementation from its
// serialized state. Services never write a factory by hand: each
// registers its proxy classes with RegisterProxy<I, P>(protocol) and its
// migratable objects with RegisterServerObject<I> (export.h), all in one
// table (services::RegisterAllServices).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/binding.h"
#include "core/proxy.h"
#include "core/runtime.h"
#include "sim/task.h"

namespace proxy::core {

/// Creates a proxy (as the interface's abstract type, erased to void) in
/// `context`, bound per `binding`.
using ProxyFactory =
    std::function<std::shared_ptr<void>(Context& context,
                                        const ServiceBinding& binding)>;

class ProxyFactoryRegistry {
 public:
  /// The process-wide registry (models the system's code-installation
  /// service; see DESIGN.md design rules).
  static ProxyFactoryRegistry& Instance();

  Status Register(InterfaceId iface, std::uint32_t protocol,
                  ProxyFactory factory);

  /// Instantiates the proxy advertised by `binding`.
  Result<std::shared_ptr<void>> Create(Context& context,
                                       const ServiceBinding& binding) const;

  [[nodiscard]] bool Has(InterfaceId iface, std::uint32_t protocol) const;

 private:
  using Key = std::pair<std::uint64_t, std::uint32_t>;  // (iface, protocol)
  std::map<Key, ProxyFactory> factories_;
};

/// Rebuilds a server implementation from migrated state and exports it in
/// `context` under the (stable) object id. Returns the new binding.
using ServerObjectFactory = std::function<Result<ServiceBinding>(
    Context& context, ObjectId id, std::uint32_t protocol, Bytes state)>;

class ServerObjectFactoryRegistry {
 public:
  static ServerObjectFactoryRegistry& Instance();

  Status Register(InterfaceId iface, ServerObjectFactory factory);

  Result<ServiceBinding> Create(Context& context, InterfaceId iface,
                                ObjectId id, std::uint32_t protocol,
                                Bytes state) const;

  [[nodiscard]] bool Has(InterfaceId iface) const {
    return factories_.contains(iface);
  }

 private:
  std::unordered_map<InterfaceId, ServerObjectFactory> factories_;
};

/// Installs proxy class P as interface I's protocol-`protocol` proxy. P is
/// built from (Context&, const ServiceBinding&). ALREADY_EXISTS when the
/// slot is taken.
template <typename I, typename P>
Status RegisterProxy(std::uint32_t protocol) {
  return ProxyFactoryRegistry::Instance().Register(
      InterfaceIdOf(I::kInterfaceName), protocol,
      [](Context& context,
         const ServiceBinding& binding) -> std::shared_ptr<void> {
        return std::static_pointer_cast<I>(
            std::make_shared<P>(context, binding));
      });
}

/// Acquisition knobs. `allow_direct` lets Acquire return the
/// implementation itself when the object lives in the caller's own
/// context (the paper's "a local object is its own proxy").
/// `protocol_override` forces a proxy protocol regardless of what the
/// service advertises (benchmarks use it to compare protocols on one
/// service). `call` (when set) becomes the proxy's ambient
/// rpc::CallOptions — deadline, retry budget, breaker opt-out — so call
/// policy is declared at acquisition instead of patched on afterwards.
/// `trace` threads a causal context through the name resolution itself.
struct AcquireOptions {
  bool allow_direct = true;
  std::uint32_t protocol_override = 0;  // 0 = respect the service
  std::optional<rpc::CallOptions> call;
  obs::TraceContext trace;
};

/// Binds to a ServiceBinding already in hand (no name resolution). The
/// building block Acquire and migration share.
template <typename I>
Result<std::shared_ptr<I>> BindObject(Context& context, ServiceBinding binding,
                                      const AcquireOptions& options = {}) {
  if (binding.interface != InterfaceIdOf(I::kInterfaceName)) {
    return FailedPreconditionError(
        std::string("binding is not a ") + std::string(I::kInterfaceName));
  }
  if (options.protocol_override != 0) {
    binding.protocol = options.protocol_override;
  }
  if (options.allow_direct) {
    // Same context: the object itself is the cheapest possible proxy.
    if (const auto* entry = context.FindLocal(binding.object)) {
      if (entry->iface != binding.interface) {
        return FailedPreconditionError("local object has wrong interface");
      }
      return std::static_pointer_cast<I>(entry->impl);
    }
  }
  PROXY_ASSIGN_OR_RETURN(
      std::shared_ptr<void> proxy,
      ProxyFactoryRegistry::Instance().Create(context, binding));
  std::shared_ptr<I> typed = std::static_pointer_cast<I>(std::move(proxy));
  if (options.call.has_value()) {
    if (auto* base = dynamic_cast<ProxyBase*>(typed.get())) {
      base->set_call_options(*options.call);
    }
  }
  return typed;
}

/// THE way a client acquires a service: resolves `path` through the
/// context's caching name client, verifies the interface, instantiates
/// the advertised proxy, and arms it for failure re-resolution. Replaces
/// the old Bind / cached-Bind / test-BindByName trio.
template <typename I>
sim::Co<Result<std::shared_ptr<I>>> Acquire(Context& context, std::string path,
                                            AcquireOptions options = {}) {
  Result<ServiceBinding> binding =
      co_await context.cached_names().ResolvePath(path, options.trace);
  if (!binding.ok()) co_return binding.status();
  Result<std::shared_ptr<I>> bound =
      BindObject<I>(context, std::move(*binding), options);
  if (bound.ok()) {
    // Name-bound proxies can re-resolve after a host failure.
    if (auto* proxy = dynamic_cast<ProxyBase*>(bound->get())) {
      proxy->set_name_path(path);
    }
  }
  co_return bound;
}

}  // namespace proxy::core

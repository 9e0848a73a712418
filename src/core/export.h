// ServiceExport: the server side of the proxy principle.
//
// Exporting an object makes it reachable: it appears in the context's
// RPC dispatch (for proxies), in the context's local registry (for the
// direct path and migration), and — once Publish()ed — in the name
// service. The export handle is also the capability root: Revoke() cuts
// every proxy off at once.
#pragma once

#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "core/binding.h"
#include "core/migration.h"
#include "core/runtime.h"
#include "rpc/server.h"
#include "rpc/stub.h"

namespace proxy::core {

template <typename I>
class ServiceExport {
 public:
  /// Exports `impl` with `dispatch` (its skeleton) in `context`,
  /// advertising proxy protocol `protocol`. `migratable` may be null for
  /// objects that cannot move.
  static Result<ServiceExport> Create(
      Context& context, std::shared_ptr<I> impl,
      std::shared_ptr<rpc::Dispatch> dispatch, std::uint32_t protocol,
      std::shared_ptr<IMigratable> migratable = nullptr) {
    if (!impl || !dispatch) {
      return InvalidArgumentError("null implementation or dispatch");
    }
    const ObjectId id = context.MintObjectId();
    return CreateWithId(context, id, std::move(impl), std::move(dispatch),
                        protocol, std::move(migratable));
  }

  /// As Create, but under a caller-chosen id — migration re-exports an
  /// object under its original (stable) identity.
  static Result<ServiceExport> CreateWithId(
      Context& context, ObjectId id, std::shared_ptr<I> impl,
      std::shared_ptr<rpc::Dispatch> dispatch, std::uint32_t protocol,
      std::shared_ptr<IMigratable> migratable = nullptr) {
    PROXY_RETURN_IF_ERROR(context.server().ExportObject(id, dispatch));
    const Status local =
        context.RegisterLocal(id, InterfaceIdOf(I::kInterfaceName), protocol,
                              impl, std::move(migratable));
    if (!local.ok()) {
      (void)context.server().RemoveObject(id);
      return local;
    }
    // Exporting makes this context a migration participant: its control
    // object must exist so peers can Pull objects away from it.
    context.migration();
    ServiceBinding binding;
    binding.server = context.server_address();
    binding.object = id;
    binding.interface = InterfaceIdOf(I::kInterfaceName);
    binding.protocol = protocol;
    return ServiceExport(context, binding, std::move(impl));
  }

  ServiceExport(ServiceExport&&) noexcept = default;
  ServiceExport& operator=(ServiceExport&&) noexcept = default;

  [[nodiscard]] const ServiceBinding& binding() const noexcept {
    return binding_;
  }
  [[nodiscard]] const std::shared_ptr<I>& impl() const noexcept {
    return impl_;
  }
  [[nodiscard]] Context& context() noexcept { return *context_; }

  /// Registers the binding in the name service under `name`.
  rpc::TypedReply<rpc::Void> Publish(std::string name,
                                     std::uint64_t lease_ns = 0) {
    return context_->names().RegisterService(std::move(name), binding_,
                                             lease_ns);
  }

  /// Revokes the capability: every proxy's next call fails with
  /// PERMISSION_DENIED, permanently.
  void Revoke() {
    context_->server().Revoke(binding_.object);
    context_->UnregisterLocal(binding_.object);
  }

  /// Withdraws the export without revoking (e.g. before migration: the
  /// id stays honourable via a forwarding hint).
  void Withdraw() {
    (void)context_->server().RemoveObject(binding_.object);
    context_->UnregisterLocal(binding_.object);
  }

 private:
  ServiceExport(Context& context, ServiceBinding binding,
                std::shared_ptr<I> impl)
      : context_(&context), binding_(binding), impl_(std::move(impl)) {}

  Context* context_;
  ServiceBinding binding_;
  std::shared_ptr<I> impl_;
};

/// Registers interface I's server-object factory for migration: an S
/// (built from the receiving Context when it takes one) restores the
/// migrated state and is re-exported, with `make_dispatch` as its
/// skeleton, under its stable id. ALREADY_EXISTS when I has one.
template <typename I, typename S>
Status RegisterServerObject(
    std::shared_ptr<rpc::Dispatch> (*make_dispatch)(std::shared_ptr<S>)) {
  return ServerObjectFactoryRegistry::Instance().Register(
      InterfaceIdOf(I::kInterfaceName),
      [make_dispatch](Context& context, ObjectId id, std::uint32_t protocol,
                      Bytes state) -> Result<ServiceBinding> {
        std::shared_ptr<S> impl;
        if constexpr (std::is_constructible_v<S, Context&>) {
          impl = std::make_shared<S>(context);
        } else {
          impl = std::make_shared<S>();
        }
        PROXY_RETURN_IF_ERROR(impl->RestoreState(View(state)));
        PROXY_ASSIGN_OR_RETURN(
            auto exported,
            ServiceExport<I>::CreateWithId(context, id, impl,
                                           make_dispatch(impl), protocol,
                                           impl));
        return exported.binding();
      });
}

}  // namespace proxy::core

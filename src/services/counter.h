// Counter service — the migration workhorse.
//
// Tiny state (one integer) makes the counter ideal for studying *where*
// an object should live. Three proxy protocols:
//
//   protocol 1 — CounterStub      plain RPC (leave the object where it is)
//   protocol 2 — CounterDsmProxy  distributed-virtual-memory style:
//                                 always pull the object into the local
//                                 context before operating on it
//
// Together with protocol-1 + explicit MigrationManager::PushTo, these are
// the three location strategies of the invocation-matrix experiment (T1):
// leave-at-site, migrate-on-use, and managed placement.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "core/export.h"
#include "core/migration.h"
#include "core/proxy.h"
#include "core/runtime.h"
#include "rpc/stub.h"
#include "sim/task.h"

namespace proxy::services {

class ICounter {
 public:
  static constexpr std::string_view kInterfaceName = "proxy.services.Counter";

  virtual ~ICounter() = default;

  /// Adds `delta`; returns the new value.
  virtual sim::Co<Result<std::int64_t>> Increment(std::int64_t delta) = 0;
  virtual sim::Co<Result<std::int64_t>> Read() = 0;
};

namespace counterwire {

struct IncrementRequest {
  std::int64_t delta = 0;
  PROXY_SERDE_FIELDS(delta)
};

/// Both methods answer the counter's value.
inline constexpr rpc::Method<IncrementRequest, std::int64_t> kIncrement{1};
inline constexpr rpc::Method<rpc::Void, std::int64_t> kRead{2};

}  // namespace counterwire

class CounterService : public ICounter, public core::IMigratable {
 public:
  CounterService() = default;
  explicit CounterService(std::int64_t initial) : value_(initial) {}

  sim::Co<Result<std::int64_t>> Increment(std::int64_t delta) override {
    co_return Add(delta);
  }
  sim::Co<Result<std::int64_t>> Read() override { co_return value(); }

  // The synchronous core the skeleton calls: an integer cannot suspend.
  /// Adds `delta`; returns the new value.
  std::int64_t Add(std::int64_t delta) noexcept { return value_ += delta; }
  [[nodiscard]] std::int64_t value() const noexcept { return value_; }

  [[nodiscard]] Bytes SnapshotState() const override;
  Status RestoreState(BytesView state);

 private:
  std::int64_t value_ = 0;
};

std::shared_ptr<rpc::Dispatch> MakeCounterDispatch(
    std::shared_ptr<CounterService> impl);

struct CounterExport {
  std::shared_ptr<CounterService> impl;
  core::ServiceBinding binding;
};
Result<CounterExport> ExportCounterService(core::Context& context,
                                           std::uint32_t protocol = 1,
                                           std::int64_t initial = 0);

/// Protocol 1: plain stub.
class CounterStub : public ICounter, public core::ProxyBase {
 public:
  CounterStub(core::Context& context, core::ServiceBinding binding)
      : core::ProxyBase(context, std::move(binding)) {}

  sim::Co<Result<std::int64_t>> Increment(std::int64_t delta) override;
  sim::Co<Result<std::int64_t>> Read() override;
};

/// Protocol 2: DSM-style proxy. Every operation first ensures the object
/// is resident in the caller's context (pulling it if necessary), then
/// invokes it directly — access is a procedure call, relocation is the
/// price. The mirror image of the stub's trade-off.
class CounterDsmProxy : public ICounter, public core::ProxyBase {
 public:
  CounterDsmProxy(core::Context& context, core::ServiceBinding binding)
      : core::ProxyBase(context, std::move(binding)) {}

  sim::Co<Result<std::int64_t>> Increment(std::int64_t delta) override;
  sim::Co<Result<std::int64_t>> Read() override;

  [[nodiscard]] std::uint64_t pulls() const noexcept { return pulls_; }

 private:
  /// Resolves the local implementation, migrating the object here first
  /// when it lives elsewhere.
  sim::Co<Result<std::shared_ptr<ICounter>>> EnsureLocal();

  std::uint64_t pulls_ = 0;
};

}  // namespace proxy::services

// Lock service — mutual exclusion as a service.
//
// Exercised by the protection experiments: a lock capability is exactly
// the kind of object whose proxy must be revocable, and whose blocking
// Acquire shows that server method handlers are full coroutines (a
// handler parks until the lock frees without blocking the server).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string_view>

#include "core/export.h"
#include "core/proxy.h"
#include "core/runtime.h"
#include "rpc/stub.h"
#include "sim/future.h"
#include "sim/task.h"

namespace proxy::services {

class ILockService {
 public:
  static constexpr std::string_view kInterfaceName = "proxy.services.Lock";

  virtual ~ILockService() = default;

  /// Non-blocking: true if the lock was acquired by `owner`.
  virtual sim::Co<Result<bool>> TryAcquire(std::string name,
                                           std::uint64_t owner) = 0;
  /// Blocking: parks until the lock is granted to `owner`.
  virtual sim::Co<Result<rpc::Void>> Acquire(std::string name,
                                             std::uint64_t owner) = 0;
  virtual sim::Co<Result<rpc::Void>> Release(std::string name,
                                             std::uint64_t owner) = 0;
  virtual sim::Co<Result<std::optional<std::uint64_t>>> Holder(
      std::string name) = 0;
};

namespace lockwire {

struct LockRequest {
  std::string name;
  std::uint64_t owner = 0;
  PROXY_SERDE_FIELDS(name, owner)
};
struct HolderRequest {
  std::string name;
  PROXY_SERDE_FIELDS(name)
};

/// Answers whether `owner` holds the lock afterwards.
inline constexpr rpc::Method<LockRequest, bool> kTryAcquire{1};
inline constexpr rpc::Method<LockRequest, rpc::Void> kAcquire{2};
inline constexpr rpc::Method<LockRequest, rpc::Void> kRelease{3};
inline constexpr rpc::Method<HolderRequest, std::optional<std::uint64_t>>
    kHolder{4};

}  // namespace lockwire

class LockServiceImpl : public ILockService {
 public:
  explicit LockServiceImpl(sim::Scheduler& scheduler)
      : scheduler_(&scheduler) {}

  sim::Co<Result<bool>> TryAcquire(std::string name,
                                   std::uint64_t owner) override {
    co_return TryLock(name, owner);
  }
  /// The one method that suspends: it parks until the lock is handed over.
  sim::Co<Result<rpc::Void>> Acquire(std::string name,
                                     std::uint64_t owner) override;
  sim::Co<Result<rpc::Void>> Release(std::string name,
                                     std::uint64_t owner) override {
    co_return Unlock(name, owner);
  }
  sim::Co<Result<std::optional<std::uint64_t>>> Holder(
      std::string name) override {
    co_return HolderOf(name);
  }

  // The synchronous core the coroutines above and the skeleton call.
  /// Takes the lock if it is free; true when `owner` holds it afterwards.
  bool TryLock(const std::string& name, std::uint64_t owner);
  /// Releases `owner`'s hold, handing the lock to the first waiter.
  Result<rpc::Void> Unlock(const std::string& name, std::uint64_t owner);
  [[nodiscard]] std::optional<std::uint64_t> HolderOf(
      const std::string& name) const;

  [[nodiscard]] std::size_t lock_count() const noexcept {
    return locks_.size();
  }

 private:
  struct LockState {
    std::optional<std::uint64_t> holder;
    std::deque<std::pair<std::uint64_t, sim::Promise<bool>>> waiters;
  };

  sim::Scheduler* scheduler_;
  std::map<std::string, LockState> locks_;
};

std::shared_ptr<rpc::Dispatch> MakeLockDispatch(
    std::shared_ptr<LockServiceImpl> impl);

struct LockExport {
  std::shared_ptr<LockServiceImpl> impl;
  core::ServiceBinding binding;
};
Result<LockExport> ExportLockService(core::Context& context);

class LockStub : public ILockService, public core::ProxyBase {
 public:
  LockStub(core::Context& context, core::ServiceBinding binding)
      : core::ProxyBase(context, std::move(binding)) {
    // Blocking Acquire can out-wait the default retry budget; the lock
    // stub is patient by construction.
    rpc::CallOptions patient;
    patient.retry_interval = Milliseconds(200);
    patient.max_retries = 50;
    set_call_options(patient);
  }

  sim::Co<Result<bool>> TryAcquire(std::string name,
                                   std::uint64_t owner) override;
  sim::Co<Result<rpc::Void>> Acquire(std::string name,
                                     std::uint64_t owner) override;
  sim::Co<Result<rpc::Void>> Release(std::string name,
                                     std::uint64_t owner) override;
  sim::Co<Result<std::optional<std::uint64_t>>> Holder(
      std::string name) override;
};

}  // namespace proxy::services

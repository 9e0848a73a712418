#include "services/lock.h"

namespace proxy::services {

using lockwire::HolderRequest;
using lockwire::LockRequest;

bool LockServiceImpl::TryLock(const std::string& name, std::uint64_t owner) {
  LockState& lock = locks_[name];
  if (lock.holder.has_value()) return lock.holder == owner;  // re-entrant
  lock.holder = owner;
  return true;
}

sim::Co<Result<rpc::Void>> LockServiceImpl::Acquire(std::string name,
                                                    std::uint64_t owner) {
  if (TryLock(name, owner)) co_return rpc::Void{};
  // Park this handler until Release hands the lock over.
  sim::Promise<bool> granted(*scheduler_);
  auto future = granted.future();
  locks_[name].waiters.emplace_back(owner, std::move(granted));
  (void)co_await future;
  co_return rpc::Void{};
}

Result<rpc::Void> LockServiceImpl::Unlock(const std::string& name,
                                          std::uint64_t owner) {
  const auto it = locks_.find(name);
  if (it == locks_.end() || !it->second.holder.has_value()) {
    return FailedPreconditionError("lock not held: " + name);
  }
  LockState& lock = it->second;
  if (lock.holder != owner) {
    return PermissionDeniedError("lock held by another owner: " + name);
  }
  if (lock.waiters.empty()) {
    lock.holder.reset();
    return rpc::Void{};
  }
  // FIFO hand-over.
  auto [next_owner, promise] = std::move(lock.waiters.front());
  lock.waiters.pop_front();
  lock.holder = next_owner;
  promise.Set(true);
  return rpc::Void{};
}

std::optional<std::uint64_t> LockServiceImpl::HolderOf(
    const std::string& name) const {
  const auto it = locks_.find(name);
  if (it == locks_.end()) return std::nullopt;
  return it->second.holder;
}

std::shared_ptr<rpc::Dispatch> MakeLockDispatch(
    std::shared_ptr<LockServiceImpl> impl) {
  auto dispatch = std::make_shared<rpc::Dispatch>();
  rpc::RegisterTyped(*dispatch, lockwire::kTryAcquire, [impl](LockRequest req) {
    return impl->TryLock(req.name, req.owner);
  });
  rpc::RegisterTyped(*dispatch, lockwire::kAcquire, [impl](LockRequest req) {
    return impl->Acquire(std::move(req.name), req.owner);
  });
  rpc::RegisterTyped(*dispatch, lockwire::kRelease, [impl](LockRequest req) {
    return impl->Unlock(req.name, req.owner);
  });
  rpc::RegisterTyped(*dispatch, lockwire::kHolder, [impl](HolderRequest req) {
    return impl->HolderOf(req.name);
  });
  return dispatch;
}

Result<LockExport> ExportLockService(core::Context& context) {
  auto impl = std::make_shared<LockServiceImpl>(context.scheduler());
  auto dispatch = MakeLockDispatch(impl);
  PROXY_ASSIGN_OR_RETURN(
      auto exported,
      core::ServiceExport<ILockService>::Create(context, impl, dispatch,
                                                /*protocol=*/1));
  return LockExport{std::move(impl), exported.binding()};
}

sim::Co<Result<bool>> LockStub::TryAcquire(std::string name,
                                           std::uint64_t owner) {
  return Call(lockwire::kTryAcquire, LockRequest{std::move(name), owner});
}

sim::Co<Result<rpc::Void>> LockStub::Acquire(std::string name,
                                             std::uint64_t owner) {
  return Call(lockwire::kAcquire, LockRequest{std::move(name), owner});
}

sim::Co<Result<rpc::Void>> LockStub::Release(std::string name,
                                             std::uint64_t owner) {
  return Call(lockwire::kRelease, LockRequest{std::move(name), owner});
}

sim::Co<Result<std::optional<std::uint64_t>>> LockStub::Holder(
    std::string name) {
  return Call(lockwire::kHolder, HolderRequest{std::move(name)});
}

}  // namespace proxy::services

#include "naming/client.h"

namespace proxy::naming {

rpc::TypedReply<rpc::Void> NameClient::Register(std::string name,
                                                NameRecord record,
                                                bool overwrite) {
  return TypedCall(kRegister, RegisterRequest{std::move(name),
                                              std::move(record), overwrite});
}

rpc::TypedReply<NameRecord> NameClient::Lookup(std::string name) {
  return TypedCall(kLookup, LookupRequest{std::move(name)});
}

rpc::TypedReply<rpc::Void> NameClient::Unregister(std::string name) {
  return TypedCall(kUnregister, UnregisterRequest{std::move(name)});
}

rpc::TypedReply<std::vector<std::pair<std::string, NameRecord>>>
NameClient::List(std::string prefix) {
  return TypedCall(kList, ListRequest{std::move(prefix)});
}

sim::Co<Result<core::ServiceBinding>> NameClient::ResolvePath(
    std::string path, obs::TraceContext trace) {
  // Walk the path, hopping servers at directory referrals. A server may
  // store names containing '/' directly, so at each hop the whole
  // remaining path is tried as one record first; only on a miss is it
  // split at the first '/' into (directory, rest). The walk uses a
  // scratch stub so this client's own binding is untouched.
  NameClient cursor(client(), server());
  rpc::CallOptions walk_options = call_options();
  walk_options.trace = trace;
  cursor.set_call_options(walk_options);
  std::size_t start = 0;
  for (int hop = 0; hop < kMaxReferralHops; ++hop) {
    std::string rest = path.substr(start);
    if (rest.empty()) co_return InvalidArgumentError("empty path");

    Result<NameRecord> whole = co_await cursor.Lookup(rest);
    if (whole.ok()) {
      if (whole->kind != RecordKind::kService) {
        co_return FailedPreconditionError("path ends at a directory: " + path);
      }
      co_return whole->binding;
    }
    if (whole.status().code() != StatusCode::kNotFound) {
      co_return whole.status();
    }

    const std::size_t slash = rest.find('/');
    if (slash == std::string::npos || slash == 0) {
      co_return NotFoundError("unbound name: " + path);
    }
    Result<NameRecord> dir = co_await cursor.Lookup(rest.substr(0, slash));
    if (!dir.ok()) co_return dir.status();
    if (dir->kind != RecordKind::kDirectory) {
      co_return FailedPreconditionError("path descends into a leaf: " + path);
    }
    cursor.Rebind(dir->directory_server, kNameServiceObject);
    start += slash + 1;
  }
  co_return FailedPreconditionError("referral chain too long: " + path);
}

rpc::TypedReply<rpc::Void> NameClient::RegisterService(
    std::string name, core::ServiceBinding binding, std::uint64_t lease_ns) {
  NameRecord record;
  record.kind = RecordKind::kService;
  record.binding = binding;
  record.lease_ns = lease_ns;
  return Register(std::move(name), std::move(record), /*overwrite=*/true);
}

sim::Co<Result<core::ServiceBinding>> CachingNameClient::ResolvePath(
    std::string path, obs::TraceContext trace) {
  const auto it = cache_.find(path);
  if (it != cache_.end() && (it->second.expires_at == 0 ||
                             it->second.expires_at > scheduler_->now())) {
    ++hits_;
    co_return it->second.binding;
  }
  ++misses_;
  Result<core::ServiceBinding> resolved =
      co_await inner_.ResolvePath(path, trace);
  if (resolved.ok()) {
    cache_[path] = CacheEntry{*resolved, scheduler_->now() + kTtl};
  }
  co_return resolved;
}

}  // namespace proxy::naming

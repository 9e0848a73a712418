// Name service wire protocol.
//
// The name space is hierarchical: a record is either a service binding
// (leaf) or a directory referral to another name server (interior node),
// so name servers federate — resolving "a/b/svc" may hop across several
// servers. Records may carry a lease; expired records vanish.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/binding.h"
#include "net/address.h"
#include "rpc/stub.h"
#include "serde/traits.h"

namespace proxy::naming {

/// The bootstrap object id of every name server: the one well-known
/// capability in the system (everything else is obtained by lookup).
inline constexpr ObjectId kNameServiceObject{0x626f6f74ULL, 0x6e616d65ULL};

/// Conventional port a name server listens on.
inline constexpr PortId kNameServicePort{100};

enum class RecordKind : std::uint8_t {
  kService = 1,    // leaf: a service binding
  kDirectory = 2,  // referral to another name server
};

struct NameRecord {
  RecordKind kind = RecordKind::kService;
  core::ServiceBinding binding;     // valid when kind == kService
  net::Address directory_server;    // valid when kind == kDirectory
  std::uint64_t lease_ns = 0;       // 0 = no expiry; else TTL at register

  PROXY_SERDE_FIELDS(kind, binding, directory_server, lease_ns)
};

struct RegisterRequest {
  std::string name;  // single path segment (no '/')
  NameRecord record;
  bool overwrite = false;
  PROXY_SERDE_FIELDS(name, record, overwrite)
};

struct LookupRequest {
  std::string name;
  PROXY_SERDE_FIELDS(name)
};

struct UnregisterRequest {
  std::string name;
  PROXY_SERDE_FIELDS(name)
};

struct ListRequest {
  std::string prefix;
  PROXY_SERDE_FIELDS(prefix)
};

inline constexpr rpc::Method<RegisterRequest, rpc::Void> kRegister{1};
inline constexpr rpc::Method<LookupRequest, NameRecord> kLookup{2};
inline constexpr rpc::Method<UnregisterRequest, rpc::Void> kUnregister{3};
/// The (name, record) pairs under a prefix, in name order.
inline constexpr rpc::Method<ListRequest,
                             std::vector<std::pair<std::string, NameRecord>>>
    kList{4};

}  // namespace proxy::naming

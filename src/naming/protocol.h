// Name service wire protocol.
//
// The name space is hierarchical: a record is either a service binding
// (leaf) or a directory referral to another name server (interior node),
// so name servers federate — resolving "a/b/svc" may hop across several
// servers. Records may carry a lease; expired records vanish.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/binding.h"
#include "net/address.h"
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

enum Method : std::uint32_t {
  kRegister = 1,
  kLookup = 2,
  kUnregister = 3,
  kList = 4,
};

struct RegisterRequest {
  std::string name;  // single path segment (no '/')
  NameRecord record;
  bool overwrite = false;
  PROXY_SERDE_FIELDS(name, record, overwrite)
};

// A reply carries one value and is that value: Lookup answers the
// NameRecord, List the (name, record) pairs in name order, Register and
// Unregister rpc::Void.
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

}  // namespace proxy::naming

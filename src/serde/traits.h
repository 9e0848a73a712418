// Generic Serialize / Deserialize over the archive types.
//
// A type is wire-able if it is a primitive, a standard container of
// wire-able types, one of the runtime id types, or a struct that exposes
// its fields with PROXY_SERDE_FIELDS(...). All overloads live in
// proxy::serde; forward declarations precede definitions so that nested
// containers resolve regardless of declaration order.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/id.h"
#include "common/status.h"
#include "serde/reader.h"
#include "serde/writer.h"

namespace proxy::serde {

// --- forward declarations (ordinary-lookup set for nested templates) ---

inline void Serialize(Writer& w, std::uint8_t v);
inline void Serialize(Writer& w, std::uint16_t v);
inline void Serialize(Writer& w, std::uint32_t v);
inline void Serialize(Writer& w, std::uint64_t v);
inline void Serialize(Writer& w, std::int32_t v);
inline void Serialize(Writer& w, std::int64_t v);
inline void Serialize(Writer& w, bool v);
inline void Serialize(Writer& w, double v);
inline void Serialize(Writer& w, const std::string& v);
inline void Serialize(Writer& w, const Bytes& v);
inline void Serialize(Writer& w, const ObjectId& v);
inline void Serialize(Writer& w, NodeId v);
inline void Serialize(Writer& w, PortId v);
inline void Serialize(Writer& w, ContextId v);
inline void Serialize(Writer& w, InterfaceId v);
template <typename E>
  requires std::is_enum_v<E>
void Serialize(Writer& w, E v);
template <typename T>
void Serialize(Writer& w, const std::vector<T>& v);
template <typename T>
void Serialize(Writer& w, const std::optional<T>& v);
template <typename A, typename B>
void Serialize(Writer& w, const std::pair<A, B>& v);
template <typename K, typename V>
void Serialize(Writer& w, const std::map<K, V>& v);

inline Status Deserialize(Reader& r, std::uint8_t& v);
inline Status Deserialize(Reader& r, std::uint16_t& v);
inline Status Deserialize(Reader& r, std::uint32_t& v);
inline Status Deserialize(Reader& r, std::uint64_t& v);
inline Status Deserialize(Reader& r, std::int32_t& v);
inline Status Deserialize(Reader& r, std::int64_t& v);
inline Status Deserialize(Reader& r, bool& v);
inline Status Deserialize(Reader& r, double& v);
inline Status Deserialize(Reader& r, std::string& v);
inline Status Deserialize(Reader& r, Bytes& v);
inline Status Deserialize(Reader& r, ObjectId& v);
inline Status Deserialize(Reader& r, NodeId& v);
inline Status Deserialize(Reader& r, PortId& v);
inline Status Deserialize(Reader& r, ContextId& v);
inline Status Deserialize(Reader& r, InterfaceId& v);
template <typename E>
  requires std::is_enum_v<E>
Status Deserialize(Reader& r, E& v);
template <typename T>
Status Deserialize(Reader& r, std::vector<T>& v);
template <typename T>
Status Deserialize(Reader& r, std::optional<T>& v);
template <typename A, typename B>
Status Deserialize(Reader& r, std::pair<A, B>& v);
template <typename K, typename V>
Status Deserialize(Reader& r, std::map<K, V>& v);

/// Struct support: a type with PROXY_SERDE_FIELDS(...) exposes its fields
/// as a tie; (de)serialization visits them in declaration order.
template <typename T>
concept WireStruct = requires(T t, const T ct) {
  t.SerdeFields();
  ct.SerdeFields();
};

template <WireStruct T>
void Serialize(Writer& w, const T& v);
template <WireStruct T>
Status Deserialize(Reader& r, T& v);

// --- definitions ---

inline void Serialize(Writer& w, std::uint8_t v) { w.WriteU8(v); }
inline void Serialize(Writer& w, std::uint16_t v) { w.WriteU16(v); }
inline void Serialize(Writer& w, std::uint32_t v) { w.WriteVarint(v); }
inline void Serialize(Writer& w, std::uint64_t v) { w.WriteVarint(v); }
inline void Serialize(Writer& w, std::int32_t v) { w.WriteSigned(v); }
inline void Serialize(Writer& w, std::int64_t v) { w.WriteSigned(v); }
inline void Serialize(Writer& w, bool v) { w.WriteBool(v); }
inline void Serialize(Writer& w, double v) { w.WriteDouble(v); }
inline void Serialize(Writer& w, const std::string& v) { w.WriteString(v); }
inline void Serialize(Writer& w, const Bytes& v) { w.WriteBytes(v); }

inline void Serialize(Writer& w, const ObjectId& v) {
  w.WriteU64(v.hi);
  w.WriteU64(v.lo);
}
inline void Serialize(Writer& w, NodeId v) { w.WriteVarint(v.value()); }
inline void Serialize(Writer& w, PortId v) { w.WriteVarint(v.value()); }
inline void Serialize(Writer& w, ContextId v) { w.WriteVarint(v.value()); }
inline void Serialize(Writer& w, InterfaceId v) { w.WriteU64(v.value()); }

template <typename E>
  requires std::is_enum_v<E>
void Serialize(Writer& w, E v) {
  w.WriteVarint(static_cast<std::uint64_t>(
      static_cast<std::underlying_type_t<E>>(v)));
}

template <typename T>
void Serialize(Writer& w, const std::vector<T>& v) {
  w.WriteVarint(v.size());
  for (const auto& item : v) Serialize(w, item);
}

template <typename T>
void Serialize(Writer& w, const std::optional<T>& v) {
  w.WriteBool(v.has_value());
  if (v) Serialize(w, *v);
}

template <typename A, typename B>
void Serialize(Writer& w, const std::pair<A, B>& v) {
  Serialize(w, v.first);
  Serialize(w, v.second);
}

template <typename K, typename V>
void Serialize(Writer& w, const std::map<K, V>& v) {
  w.WriteVarint(v.size());
  for (const auto& [k, val] : v) {
    Serialize(w, k);
    Serialize(w, val);
  }
}

inline Status Deserialize(Reader& r, std::uint8_t& v) { return r.ReadU8(v); }
inline Status Deserialize(Reader& r, std::uint16_t& v) { return r.ReadU16(v); }

inline Status Deserialize(Reader& r, std::uint32_t& v) {
  std::uint64_t raw = 0;
  PROXY_RETURN_IF_ERROR(r.ReadVarint(raw));
  if (raw > 0xffffffffULL) return CorruptError("u32 overflow");
  v = static_cast<std::uint32_t>(raw);
  return Status::Ok();
}

inline Status Deserialize(Reader& r, std::uint64_t& v) {
  return r.ReadVarint(v);
}

inline Status Deserialize(Reader& r, std::int32_t& v) {
  std::int64_t raw = 0;
  PROXY_RETURN_IF_ERROR(r.ReadSigned(raw));
  if (raw < INT32_MIN || raw > INT32_MAX) return CorruptError("i32 overflow");
  v = static_cast<std::int32_t>(raw);
  return Status::Ok();
}

inline Status Deserialize(Reader& r, std::int64_t& v) {
  return r.ReadSigned(v);
}

inline Status Deserialize(Reader& r, bool& v) { return r.ReadBool(v); }
inline Status Deserialize(Reader& r, double& v) { return r.ReadDouble(v); }
inline Status Deserialize(Reader& r, std::string& v) {
  return r.ReadString(v);
}
inline Status Deserialize(Reader& r, Bytes& v) { return r.ReadBytes(v); }

inline Status Deserialize(Reader& r, ObjectId& v) {
  PROXY_RETURN_IF_ERROR(r.ReadU64(v.hi));
  return r.ReadU64(v.lo);
}

namespace detail {
template <typename Id>
Status ReadStrongId32(Reader& r, Id& v) {
  std::uint64_t raw = 0;
  PROXY_RETURN_IF_ERROR(r.ReadVarint(raw));
  if (raw > 0xffffffffULL) return CorruptError("id overflow");
  v = Id(static_cast<std::uint32_t>(raw));
  return Status::Ok();
}
}  // namespace detail

inline Status Deserialize(Reader& r, NodeId& v) {
  return detail::ReadStrongId32(r, v);
}
inline Status Deserialize(Reader& r, PortId& v) {
  return detail::ReadStrongId32(r, v);
}
inline Status Deserialize(Reader& r, ContextId& v) {
  return detail::ReadStrongId32(r, v);
}
inline Status Deserialize(Reader& r, InterfaceId& v) {
  std::uint64_t raw = 0;
  PROXY_RETURN_IF_ERROR(r.ReadU64(raw));
  v = InterfaceId(raw);
  return Status::Ok();
}

template <typename E>
  requires std::is_enum_v<E>
Status Deserialize(Reader& r, E& v) {
  std::uint64_t raw = 0;
  PROXY_RETURN_IF_ERROR(r.ReadVarint(raw));
  v = static_cast<E>(static_cast<std::underlying_type_t<E>>(raw));
  return Status::Ok();
}

template <typename T>
Status Deserialize(Reader& r, std::vector<T>& v) {
  std::uint64_t count = 0;
  PROXY_RETURN_IF_ERROR(r.ReadVarint(count));
  // A hostile length must not trigger a huge allocation before the data
  // proves it: each element consumes >= 1 byte on the wire.
  if (count > r.remaining()) return CorruptError("vector length exceeds input");
  v.clear();
  v.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    T item{};
    PROXY_RETURN_IF_ERROR(Deserialize(r, item));
    v.push_back(std::move(item));
  }
  return Status::Ok();
}

template <typename T>
Status Deserialize(Reader& r, std::optional<T>& v) {
  bool present = false;
  PROXY_RETURN_IF_ERROR(r.ReadBool(present));
  if (!present) {
    v.reset();
    return Status::Ok();
  }
  T item{};
  PROXY_RETURN_IF_ERROR(Deserialize(r, item));
  v.emplace(std::move(item));
  return Status::Ok();
}

template <typename A, typename B>
Status Deserialize(Reader& r, std::pair<A, B>& v) {
  PROXY_RETURN_IF_ERROR(Deserialize(r, v.first));
  return Deserialize(r, v.second);
}

template <typename K, typename V>
Status Deserialize(Reader& r, std::map<K, V>& v) {
  std::uint64_t count = 0;
  PROXY_RETURN_IF_ERROR(r.ReadVarint(count));
  if (count > r.remaining()) return CorruptError("map length exceeds input");
  v.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    K key{};
    V val{};
    PROXY_RETURN_IF_ERROR(Deserialize(r, key));
    PROXY_RETURN_IF_ERROR(Deserialize(r, val));
    v.emplace(std::move(key), std::move(val));
  }
  return Status::Ok();
}

template <WireStruct T>
void Serialize(Writer& w, const T& v) {
  std::apply([&w](const auto&... fields) { (Serialize(w, fields), ...); },
             v.SerdeFields());
}

template <WireStruct T>
Status Deserialize(Reader& r, T& v) {
  Status st;
  std::apply(
      [&](auto&... fields) {
        // Fold with short-circuit: stop decoding after the first failure.
        ((st.ok() ? void(st = Deserialize(r, fields)) : void()), ...);
      },
      v.SerdeFields());
  return st;
}

/// One-shot helpers.
template <typename T>
Bytes EncodeToBytes(const T& v) {
  Writer w;
  Serialize(w, v);
  return w.Take();
}

/// Decodes a whole buffer into T; trailing bytes are an error.
template <typename T>
Result<T> DecodeFromBytes(BytesView data) {
  Reader r(data);
  T out{};
  PROXY_RETURN_IF_ERROR(Deserialize(r, out));
  PROXY_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

}  // namespace proxy::serde

/// Declares the wire fields of a struct, in encoding order. Changing the
/// order or types of existing fields is a wire break; append new fields
/// and bump the containing message's version instead.
#define PROXY_SERDE_FIELDS(...)                              \
  auto SerdeFields() { return std::tie(__VA_ARGS__); }       \
  auto SerdeFields() const { return std::tie(__VA_ARGS__); }

// Typed stub / skeleton helpers — the classic RPC programming model.
//
// A *stub* is the baseline of the proxy principle comparison: it marshals
// arguments, performs the remote call, and unmarshals the result — and
// does nothing else. So a stub method is a forward: a plain function that
// builds the request (one struct per parameter list) and returns the
// typed call, whose reply is the method's result type. Each step is
// written once:
//
//   - core::ProxyBase::Call<T>() (core/proxy.h) returns the invocation
//     loop CallRaw<T>, which decodes the reply as T; a proxy's stub
//     method returns it.
//   - TypedReply<Resp> is the typed reply of a bare RpcClient::Call: it
//     awaits the call's future and decodes a Resp in await_resume.
//     StubBase::TypedCall<Resp>() builds it for stubs without a proxy
//     (naming::NameClient); code that calls RpcClient directly wraps the
//     future in AwaitReply<Resp>().
//   - RegisterTyped<Req, Resp>() is the one typed skeleton: it decodes
//     the request, runs the handler and encodes its reply.
//
// A reply that carries one value is that value: a PROXY_SERDE_FIELDS
// struct encodes exactly as its fields, so a bare value is wire-identical
// to a one-field reply struct. TypedReply owns no coroutine frame, so a
// typed call costs no allocation and no scheduler event beyond the call
// it wraps. The skeleton's adapter is a handler's only frame when its
// service code cannot suspend.
//
// Proxies (src/core) may *contain* a stub as their transport leg, but add
// management intelligence around it (caching, batching, rebinding).
//
// GCC note (load-bearing convention): never write an aggregate-initialized
// temporary with a non-trivial destructor inside a co_await full-expression
// — `co_await Call<R>(kGet, GetRequest{key})` double-destroys the temporary
// under GCC 12 (isolated repro in DESIGN.md "toolchain notes"). Inside a
// coroutine, build the request as a named local and move it:
//     GetRequest req{key};
//     auto value = co_await Call<std::optional<std::string>>(kGet,
//                                                            std::move(req));
// A forward, being no coroutine, may pass an aggregate temporary:
//     return Call<std::optional<std::string>>(kGet, GetRequest{key});
#pragma once

#include <coroutine>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "rpc/client.h"
#include "rpc/server.h"
#include "serde/traits.h"
#include "sim/task.h"

namespace proxy::rpc {

/// The typed reply of one RpcClient::Call. Awaiting it awaits the call's
/// future and yields the reply decoded as Resp: the call's error status,
/// or the decode status (kCorrupt) for a reply that is not a Resp.
template <typename Resp>
class [[nodiscard]] TypedReply {
 public:
  explicit TypedReply(sim::Future<RpcResult> call) noexcept
      : call_(std::move(call)) {}

  [[nodiscard]] bool await_ready() const noexcept {
    return call_.await_ready();
  }
  void await_suspend(std::coroutine_handle<> awaiting) {
    call_.await_suspend(awaiting);
  }
  Result<Resp> await_resume() {
    RpcResult raw = call_.await_resume();
    if (!raw.ok()) return raw.status;
    return serde::DecodeFromBytes<Resp>(raw.payload.view());
  }

 private:
  sim::Future<RpcResult> call_;
};

/// Awaits `call` as the typed reply of a Resp-returning method.
template <typename Resp>
TypedReply<Resp> AwaitReply(sim::Future<RpcResult> call) {
  return TypedReply<Resp>(std::move(call));
}

/// Client-side base: holds the binding triple (client, server address,
/// object id) every stub needs.
class StubBase {
 public:
  StubBase(RpcClient& client, net::Address server, ObjectId object)
      : client_(&client), server_(server), object_(object) {}

  [[nodiscard]] net::Address server() const noexcept { return server_; }
  [[nodiscard]] ObjectId object() const noexcept { return object_; }
  [[nodiscard]] RpcClient& client() noexcept { return *client_; }

  void set_call_options(const CallOptions& options) noexcept {
    options_ = options;
  }
  [[nodiscard]] const CallOptions& call_options() const noexcept {
    return options_;
  }

  /// Rebinds the stub (used after OBJECT_MOVED forwarding).
  void Rebind(net::Address server, ObjectId object) noexcept {
    server_ = server;
    object_ = object;
  }

 protected:
  /// Marshals `req` and sends it as `method`; awaiting the result
  /// unmarshals a Resp.
  template <typename Resp, typename Req>
  TypedReply<Resp> TypedCall(std::uint32_t method, const Req& req) {
    return AwaitReply<Resp>(client_->Call(
        server_, object_, method, serde::EncodeToBytes(req), options_));
  }

 private:
  RpcClient* client_;
  net::Address server_;
  ObjectId object_;
  CallOptions options_;
};

/// Registers a typed handler on a dispatch table. `fn` has signature
/// Result<Resp>(Req, const CallContext&) when it cannot suspend, or
/// sim::Co<Result<Resp>>(Req, const CallContext&) when it can. Decode
/// errors are answered with the decode Status; the handler never sees
/// bad input.
template <typename Req, typename Resp, typename Fn>
void RegisterTyped(Dispatch& dispatch, std::uint32_t method, Fn fn) {
  constexpr bool kSynchronous = std::is_same_v<
      std::invoke_result_t<const Fn&, Req, const CallContext&>, Result<Resp>>;
  dispatch.Register(
      method,
      [fn = std::move(fn)](BytesView args,
                           const CallContext& ctx) -> sim::Co<Result<Bytes>> {
        // `args` borrows the request's arrival buffer; the server keeps
        // it alive for the handler's lifetime, so decoding here is safe.
        Result<Req> req = serde::DecodeFromBytes<Req>(args);
        if (!req.ok()) co_return req.status();
        if constexpr (kSynchronous) {
          const Result<Resp> resp = fn(std::move(*req), ctx);
          if (!resp.ok()) co_return resp.status();
          co_return serde::EncodeToBytes(*resp);
        } else {
          const Result<Resp> resp = co_await fn(std::move(*req), ctx);
          if (!resp.ok()) co_return resp.status();
          co_return serde::EncodeToBytes(*resp);
        }
      });
}

/// Empty request/response payload for methods with no arguments or no
/// result.
struct Void {
  std::uint8_t zero = 0;  // keeps the wire non-empty and versionable
  PROXY_SERDE_FIELDS(zero)
};

}  // namespace proxy::rpc

// Typed stub / skeleton helpers — the classic RPC programming model.
//
// A *stub* is the baseline of the proxy principle comparison: it marshals
// arguments, performs the remote call, and unmarshals the result — and
// does nothing else. So a stub method is a forward: a plain function that
// builds the request (one struct per parameter list) and returns the
// typed call.
//
// Every remote method is declared once, as a Method<Req, Resp> descriptor
// in its service's wire namespace: its id on the wire, its request type
// and its reply type. Every typed entry point takes the descriptor and
// deduces both types from it, so a stub and its skeleton name a method's
// types nowhere else and cannot disagree about them:
//
//   - core::ProxyBase::Call(method, req) (core/proxy.h) returns the
//     invocation loop CallRaw, which decodes the reply as the method's
//     reply type; a proxy's stub method returns it.
//   - TypedCall(client, to, object, method, req, options) is the typed
//     call of a bare RpcClient. Its TypedReply awaits the call's future
//     and decodes the reply in await_resume. StubBase::TypedCall(method,
//     req) is the same call for stubs without a proxy (naming::NameClient).
//   - RegisterTyped(dispatch, method, fn) is the one typed skeleton: it
//     decodes the request, runs the handler and encodes its reply.
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
// — `co_await Call(kvwire::kGet, GetRequest{key})` double-destroys the
// temporary under GCC 12 (isolated repro in DESIGN.md "toolchain notes").
// Inside a coroutine, build the request as a named local and move it:
//     GetRequest req{key};
//     auto value = co_await Call(kvwire::kGet, std::move(req));
// A forward, being no coroutine, may pass an aggregate temporary:
//     return Call(kvwire::kGet, GetRequest{key});
// The request's type is deduced from the argument as well as from the
// descriptor, so the braced form `Call(kvwire::kGet, {key})` does not
// compile.
#pragma once

#include <concepts>
#include <coroutine>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "obs/trace.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "serde/traits.h"
#include "sim/task.h"

namespace proxy::rpc {

/// One remote method: its id on the wire, its request type and its reply
/// type. Each method is declared once, after the structs it names, and
/// every typed call and registration deduces both types from it.
template <typename Req, typename Resp>
struct Method {
  std::uint32_t id;
};

/// An argument that is a request of type Req. The argument's own type is
/// deduced, so a braced temporary, which deduces nothing, does not
/// compile as one.
template <typename A, typename Req>
concept RequestOf = std::same_as<std::remove_cvref_t<A>, Req>;

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

/// Marshals `req` and sends it as `method` to `object` at `to` under
/// `options`; awaiting the result unmarshals the method's reply.
template <typename Req, typename Resp, RequestOf<Req> A>
TypedReply<Resp> TypedCall(RpcClient& client, const net::Address& to,
                           ObjectId object, Method<Req, Resp> method,
                           const A& req, const CallOptions& options) {
  return TypedReply<Resp>(client.Call(to, object, method.id,
                                      serde::EncodeToBytes(req), options));
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
  /// The typed call to this stub's binding under its options.
  template <typename Req, typename Resp, RequestOf<Req> A>
  TypedReply<Resp> TypedCall(Method<Req, Resp> method, const A& req) {
    return rpc::TypedCall(*client_, server_, object_, method, req, options_);
  }

 private:
  RpcClient* client_;
  net::Address server_;
  ObjectId object_;
  CallOptions options_;
};

namespace detail {

/// Runs a handler on its request, passing the execution's trace only to
/// a handler that takes one.
template <typename Fn, typename Req>
decltype(auto) RunHandler(const Fn& fn, Req&& req,
                          const obs::TraceContext& trace) {
  if constexpr (std::is_invocable_v<const Fn&, Req,
                                    const obs::TraceContext&>) {
    return fn(std::forward<Req>(req), trace);
  } else {
    return fn(std::forward<Req>(req));
  }
}

}  // namespace detail

/// Registers the handler of `method` on a dispatch table. `fn` takes the
/// decoded request, plus the execution's trace when it declares a second
/// parameter `const obs::TraceContext&` (a handler whose own calls extend
/// the call tree). It returns its reply, as anything that converts to
/// Result<Resp>, when it cannot suspend, or a sim::Co<Result<Resp>> when
/// it can. Decode errors are answered with the decode Status; the handler
/// never sees bad input.
template <typename Req, typename Resp, typename Fn>
void RegisterTyped(Dispatch& dispatch, Method<Req, Resp> method, Fn fn) {
  using Returned = decltype(detail::RunHandler(
      std::declval<const Fn&>(), std::declval<Req>(),
      std::declval<const obs::TraceContext&>()));
  constexpr bool kSynchronous = std::is_convertible_v<Returned, Result<Resp>>;
  dispatch.Register(
      method.id,
      [fn = std::move(fn)](
          BytesView args,
          const obs::TraceContext& trace) -> sim::Co<Result<Bytes>> {
        // `args` borrows the request's arrival buffer; the server keeps
        // it alive for the handler's lifetime, so decoding here is safe.
        Result<Req> req = serde::DecodeFromBytes<Req>(args);
        if (!req.ok()) co_return req.status();
        if constexpr (kSynchronous) {
          const Result<Resp> resp =
              detail::RunHandler(fn, std::move(*req), trace);
          if (!resp.ok()) co_return resp.status();
          co_return serde::EncodeToBytes(*resp);
        } else {
          const Result<Resp> resp =
              co_await detail::RunHandler(fn, std::move(*req), trace);
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

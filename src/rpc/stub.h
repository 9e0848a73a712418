// Typed stub / skeleton helpers — the classic RPC programming model.
//
// A *stub* is the baseline of the proxy principle comparison: it marshals
// arguments, performs the remote call, and unmarshals the result — and
// does nothing else. Service definitions build typed stubs from
// TypedCall<Req, Resp>() and typed skeletons from RegisterTyped<>().
//
// Proxies (src/core) may *contain* a stub as their transport leg, but add
// management intelligence around it (caching, batching, rebinding).
//
// GCC note (load-bearing convention): never write an aggregate-initialized
// temporary with a non-trivial destructor inside a co_await full-expression
// — `co_await Call<R>(kGet, GetRequest{key})` double-destroys the temporary
// under GCC 12 (isolated repro in DESIGN.md "toolchain notes"). Build the
// request as a named local and move it:
//     GetRequest req{key};
//     auto resp = co_await Call<GetResponse>(kGet, std::move(req));
#pragma once

#include <cstdint>
#include <utility>

#include "rpc/client.h"
#include "rpc/server.h"
#include "serde/traits.h"
#include "sim/task.h"

namespace proxy::rpc {

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
  /// Marshals `req`, calls `method`, unmarshals a Resp.
  template <typename Resp, typename Req>
  sim::Co<Result<Resp>> TypedCall(std::uint32_t method, Req req) {
    Bytes args = serde::EncodeToBytes(req);
    RpcResult raw =
        co_await client_->Call(server_, object_, method, View(args), options_);
    if (!raw.ok()) co_return raw.status;
    co_return serde::DecodeFromBytes<Resp>(raw.payload.view());
  }

 private:
  RpcClient* client_;
  net::Address server_;
  ObjectId object_;
  CallOptions options_;
};

/// Registers a typed handler on a dispatch table. `fn` has signature
/// sim::Co<Result<Resp>>(Req, const CallContext&). Decode errors are
/// answered with the decode Status; the handler never sees bad input.
template <typename Req, typename Resp, typename Fn>
void RegisterTyped(Dispatch& dispatch, std::uint32_t method, Fn fn) {
  dispatch.Register(
      method,
      [fn = std::move(fn)](BytesView args,
                           const CallContext& ctx) -> sim::Co<Result<Bytes>> {
        // `args` borrows the request's arrival buffer; the server keeps
        // it alive for the handler's lifetime, so decoding here is safe.
        Result<Req> req = serde::DecodeFromBytes<Req>(args);
        if (!req.ok()) co_return req.status();
        Result<Resp> resp = co_await fn(std::move(*req), ctx);
        if (!resp.ok()) co_return resp.status();
        co_return serde::EncodeToBytes(*resp);
      });
}

/// Empty request/response payload for methods with no arguments or no
/// result.
struct Void {
  std::uint8_t zero = 0;  // keeps the wire non-empty and versionable
  PROXY_SERDE_FIELDS(zero)
};

}  // namespace proxy::rpc

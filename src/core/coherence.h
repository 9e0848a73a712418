// Invalidation-callback coherence — the building block of caching proxies.
//
// A caching proxy keeps its copy coherent by letting the service call it
// back: the proxy exports a small sink object in its *own* context (that
// a client context can host server-side objects at all is the proxy
// principle at work) and subscribes it once; the service notifies every
// subscribed sink when data changes, skipping the writer, whose proxy
// already reflects its own write. Both halves live here, so a caching
// service supplies only its message type and what an invalidation drops.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/proxy.h"
#include "rpc/server.h"
#include "rpc/stub.h"
#include "serde/traits.h"
#include "sim/task.h"

namespace proxy::core {

/// The one subscribe request: "call this sink back when data changes".
struct SubscribeRequest {
  net::Address sink_server;
  ObjectId sink_object;
  PROXY_SERDE_FIELDS(sink_server, sink_object)
};

/// A caching service's subscribe method.
using SubscribeMethod = rpc::Method<SubscribeRequest, rpc::Void>;

/// Server half: the sinks subscribed to one service object. It travels
/// with the object's state (it serializes as the plain list of
/// subscriptions), so subscribers survive migration.
class SubscriberList {
 public:
  /// Adds `sink`; ALREADY_EXISTS when that sink object is subscribed.
  Status Add(const SubscribeRequest& sink);

  /// Sends `msg` as sink method `method` to every subscriber but
  /// `exclude` (the writer's own sink). Fire-and-forget: a lost
  /// invalidation costs a subscriber staleness until its next miss, so
  /// each call gets a 500 ms deadline instead of grinding against a dead
  /// sink. Returns the number of notifications sent.
  template <typename Msg, rpc::RequestOf<Msg> A>
  std::uint64_t Notify(rpc::RpcClient& client,
                       rpc::Method<Msg, rpc::Void> method, const A& msg,
                       ObjectId exclude) const {
    if (sinks_.empty()) return 0;
    return Send(client, method.id, serde::EncodeToBytes(msg), exclude);
  }

  PROXY_SERDE_FIELDS(sinks_)

 private:
  std::uint64_t Send(rpc::RpcClient& client, std::uint32_t method,
                     const Bytes& msg, ObjectId exclude) const;

  std::vector<SubscribeRequest> sinks_;
};

/// Serves `method` on `dispatch` by adding the caller's sink to
/// `owner->subscribers()`; the handler keeps `owner` alive.
template <typename S>
void RegisterSubscribe(rpc::Dispatch& dispatch, SubscribeMethod method,
                       std::shared_ptr<S> owner) {
  rpc::RegisterTyped(
      dispatch, method, [owner](SubscribeRequest req) -> Result<rpc::Void> {
        const Status st = owner->subscribers().Add(req);
        if (!st.ok()) return st;
        return rpc::Void{};
      });
}

/// Client half: a caching proxy's sink. Construction mints the sink's id
/// and exports it in the proxy's context; destruction withdraws it.
class InvalidationSink {
 public:
  /// `subscribe_method` is the service's subscribe method.
  InvalidationSink(ProxyBase& owner, SubscribeMethod subscribe_method);
  ~InvalidationSink();

  InvalidationSink(const InvalidationSink&) = delete;
  InvalidationSink& operator=(const InvalidationSink&) = delete;

  /// Serves sink method `method`: hands each decoded Msg to `fn`.
  template <typename Msg, typename Fn>
  void Handle(rpc::Method<Msg, rpc::Void> method, Fn fn) {
    rpc::RegisterTyped(*dispatch_, method, [fn = std::move(fn)](Msg msg) {
      fn(msg);
      return rpc::Void{};
    });
  }

  /// The warm check: true until the first subscribe starts. The owning
  /// proxy awaits Subscribe() before a read or write only then; later
  /// operations (and those while the subscribe is in flight) go ahead.
  [[nodiscard]] bool needs_subscribe() const noexcept {
    return !subscribed_ && !in_flight_;
  }

  /// Subscribes through the owning proxy's Call.
  sim::Co<Status> Subscribe();

  /// The sink's object id: what a write names as its excluded sink.
  [[nodiscard]] ObjectId id() const noexcept { return id_; }

 private:
  ProxyBase* owner_;
  SubscribeMethod subscribe_method_;
  ObjectId id_;
  std::shared_ptr<rpc::Dispatch> dispatch_;
  bool subscribed_ = false;
  bool in_flight_ = false;
};

}  // namespace proxy::core

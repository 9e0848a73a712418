#include "core/coherence.h"

#include <utility>

namespace proxy::core {

Status SubscriberList::Add(const SubscribeRequest& sink) {
  for (const auto& sub : sinks_) {
    if (sub.sink_object == sink.sink_object) {
      return AlreadyExistsError("sink already subscribed");
    }
  }
  sinks_.push_back(sink);
  return Status::Ok();
}

std::uint64_t SubscriberList::Send(rpc::RpcClient& client,
                                   std::uint32_t method, const Bytes& msg,
                                   ObjectId exclude) const {
  const rpc::CallOptions bounded{.deadline = Milliseconds(500)};
  std::uint64_t sent = 0;
  for (const auto& sub : sinks_) {
    if (!exclude.IsNil() && sub.sink_object == exclude) continue;
    sent++;
    (void)client.Call(sub.sink_server, sub.sink_object, method, msg,
                      bounded);
  }
  return sent;
}

InvalidationSink::InvalidationSink(ProxyBase& owner,
                                   SubscribeMethod subscribe_method)
    : owner_(&owner),
      subscribe_method_(subscribe_method),
      id_(owner.context().MintObjectId()),
      dispatch_(std::make_shared<rpc::Dispatch>()) {
  (void)owner.context().server().ExportObject(id_, dispatch_);
}

InvalidationSink::~InvalidationSink() {
  (void)owner_->context().server().RemoveObject(id_);
}

sim::Co<Status> InvalidationSink::Subscribe() {
  in_flight_ = true;
  SubscribeRequest req{owner_->context().server_address(), id_};
  Result<rpc::Void> resp =
      co_await owner_->Call(subscribe_method_, std::move(req));
  in_flight_ = false;
  if (resp.ok() || resp.status().code() == StatusCode::kAlreadyExists) {
    subscribed_ = true;
    co_return Status::Ok();
  }
  co_return resp.status();
}

}  // namespace proxy::core

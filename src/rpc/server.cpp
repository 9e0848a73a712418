#include "rpc/server.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/log.h"

namespace proxy::rpc {

RpcServer::RpcServer(net::Endpoint& endpoint)
    : RpcServer(endpoint, Params{}) {}

RpcServer::RpcServer(net::Endpoint& endpoint, Params params)
    : endpoint_(&endpoint), params_(params) {
  endpoint_->SetHandler([this](const net::Address& from, OwnedBytes payload) {
    OnDatagram(from, std::move(payload));
  });
}

Status RpcServer::ExportObject(ObjectId id, std::shared_ptr<Dispatch> dispatch) {
  if (id.IsNil()) return InvalidArgumentError("nil object id");
  const auto [it, inserted] = objects_.emplace(id, std::move(dispatch));
  (void)it;
  if (!inserted) return AlreadyExistsError("object already exported");
  forwarding_.erase(id);
  return Status::Ok();
}

Status RpcServer::RemoveObject(ObjectId id) {
  if (objects_.erase(id) == 0) return NotFoundError("object not exported");
  return Status::Ok();
}

void RpcServer::SetForwarding(ObjectId id, Bytes hint) {
  forwarding_[id] = std::move(hint);
}

void RpcServer::Revoke(ObjectId id) {
  objects_.erase(id);
  forwarding_.erase(id);
  revoked_.insert(id);
}

void RpcServer::Reset() {
  generation_++;
  history_.clear();
  // The process died: queued work vanishes with it (no replies — the
  // clients' retry/deadline machinery takes over), and the in-flight
  // executions that the generation fence will strand no longer hold
  // admission slots.
  for (auto& bucket : queue_) bucket.clear();
  running_ = 0;
}

std::size_t RpcServer::admission_queue_depth() const noexcept {
  std::size_t depth = 0;
  for (const auto& bucket : queue_) depth += bucket.size();
  return depth;
}

void RpcServer::BindMetrics(obs::MetricScope& scope) {
  scope.Attach("rpc.server.requests_received", &stats_.requests_received);
  scope.Attach("rpc.server.executions", &stats_.executions);
  scope.Attach("rpc.server.duplicate_suppressed", &stats_.duplicate_suppressed);
  scope.Attach("rpc.server.in_progress_dropped", &stats_.in_progress_dropped);
  scope.Attach("rpc.server.unknown_object", &stats_.unknown_object);
  scope.Attach("rpc.server.unknown_method", &stats_.unknown_method);
  scope.Attach("rpc.server.expired_dropped", &stats_.expired_dropped);
  scope.Attach("rpc.server.admission_queued", &stats_.admission_queued);
  scope.Attach("rpc.server.admission_rejected", &stats_.admission_rejected);
  scope.Attach("rpc.server.admission_evicted", &stats_.admission_evicted);
  scope.Attach("rpc.server.shed_expired_queued", &stats_.shed_expired_queued);
  scope.Attach("rpc.server.queue_wait_ns", &queue_wait_);
  scope.Attach("rpc.server.exec_ns", &exec_latency_);
}

void RpcServer::OnDatagram(const net::Address& from, OwnedBytes payload) {
  // Borrowed decode: request.args is a window of `payload`, which rides
  // into Execute's coroutine frame as the request-scoped arena.
  auto request = DecodeRequestView(payload.view());
  if (!request.ok()) {
    PROXY_LOG(kDebug, scheduler().now(), "rpc",
              "undecodable request: " << request.status().ToString());
    return;
  }
  stats_.requests_received++;

  ClientHistory& hist = HistoryOf(request->call.client_nonce);
  const std::uint64_t seq = request->call.seq;

  // At-most-once: answer retransmissions from the cache...
  if (const auto cached = hist.replies.find(seq);
      cached != hist.replies.end()) {
    stats_.duplicate_suppressed++;
    (void)endpoint_->Send(from, View(cached->second));
    return;
  }
  // ...and drop duplicates of calls still executing (the eventual reply
  // will answer both transmissions).
  if (hist.in_progress.contains(seq)) {
    stats_.in_progress_dropped++;
    return;
  }

  // Deadline already passed: the caller has given up on this call, so
  // executing it would only burn server time. Answer TIMEOUT (uncached —
  // any retransmission carries the same expired deadline).
  if (request->deadline != 0 && scheduler().now() >= request->deadline) {
    stats_.expired_dropped++;
    ReplyFrame reply;
    reply.call = request->call;
    reply.code = StatusCode::kTimeout;
    reply.error_message = "deadline expired before dispatch";
    (void)endpoint_->Send(from, EncodeReply(reply));
    return;
  }

  // Revoked capability: refuse before any dispatch work.
  if (revoked_.contains(request->object)) {
    ReplyFrame reply;
    reply.call = request->call;
    reply.code = StatusCode::kPermissionDenied;
    reply.error_message = "capability revoked";
    (void)endpoint_->Send(from, EncodeReply(reply));
    return;
  }

  // Migrated object? Answer with the forwarding hint without executing.
  if (const auto fwd = forwarding_.find(request->object);
      fwd != forwarding_.end()) {
    ReplyFrame reply;
    reply.call = request->call;
    reply.code = StatusCode::kObjectMoved;
    reply.error_message = "object migrated";
    reply.result = View(fwd->second);
    (void)endpoint_->Send(from, EncodeReply(reply));
    return;
  }

  // From here the call is "in progress" whether it runs now or waits in
  // the admission queue: duplicates of either are dropped, and the
  // eventual reply (or rejection) answers all transmissions.
  hist.in_progress.emplace(seq, true);
  Admit(from, *request, std::move(payload), scheduler().now());
}

void RpcServer::Admit(const net::Address& from,
                      const RequestFrame& request, OwnedBytes arena,
                      SimTime received_at) {
  if (params_.max_concurrency == 0 ||
      running_ < params_.max_concurrency) {
    StartExecution(from, request, std::move(arena), received_at);
    return;
  }
  const auto level = static_cast<std::size_t>(request.priority);
  if (admission_queue_depth() < params_.queue_capacity) {
    stats_.admission_queued++;
    queue_[level].push_back(
        QueuedRequest{from, request, std::move(arena), received_at});
    queue_peak_ = std::max(queue_peak_, admission_queue_depth());
    LogAdmission(request.priority, AdmissionEvent::Action::kQueue);
    return;
  }
  // Queue full: displace the *youngest* waiter of the numerically-worst
  // class strictly below the arrival — it has waited least and matters
  // least. If nothing queued is worse, the arrival itself is shed; by
  // construction a P0 is only ever rejected when everything waiting is
  // P0 too (the no-priority-inversion invariant the chaos checker pins).
  for (std::size_t worse = kPriorityLevels; worse-- > level + 1;) {
    if (queue_[worse].empty()) continue;
    QueuedRequest victim = std::move(queue_[worse].back());
    queue_[worse].pop_back();
    stats_.admission_evicted++;
    RejectOverload(victim.from, victim.request.call,
                   AdmissionEvent::Action::kEvict, victim.request.priority);
    queue_[level].push_back(
        QueuedRequest{from, request, std::move(arena), received_at});
    stats_.admission_queued++;
    LogAdmission(request.priority, AdmissionEvent::Action::kQueue);
    return;
  }
  stats_.admission_rejected++;
  RejectOverload(from, request.call, AdmissionEvent::Action::kReject,
                 request.priority);
}

void RpcServer::StartExecution(const net::Address& from,
                               const RequestFrame& request,
                               OwnedBytes arena, SimTime received_at) {
  running_++;
  LogAdmission(request.priority, AdmissionEvent::Action::kRun);
  // Detach the execution coroutine; it replies and updates the cache.
  sim::Detach(scheduler(),
              Execute(from, request, std::move(arena), received_at));
}

void RpcServer::FinishExecution() {
  if (running_ > 0) running_--;
  while (params_.max_concurrency == 0 ||
         running_ < params_.max_concurrency) {
    std::size_t level = 0;
    while (level < kPriorityLevels && queue_[level].empty()) level++;
    if (level == kPriorityLevels) break;
    QueuedRequest ready = std::move(queue_[level].front());
    queue_[level].pop_front();
    if (ready.request.deadline != 0 &&
        scheduler().now() >= ready.request.deadline) {
      // The caller's budget ran out while the request waited: shed it
      // (TIMEOUT, uncached — a retransmission carries the same expired
      // deadline) instead of burning the freed slot on dead work.
      stats_.shed_expired_queued++;
      LogAdmission(ready.request.priority,
                   AdmissionEvent::Action::kShedExpired);
      HistoryOf(ready.request.call.client_nonce)
          .in_progress.erase(ready.request.call.seq);
      ReplyFrame reply;
      reply.call = ready.request.call;
      reply.code = StatusCode::kTimeout;
      reply.error_message = "deadline expired in admission queue";
      (void)endpoint_->Send(ready.from, EncodeReply(reply));
      continue;
    }
    StartExecution(ready.from, ready.request, std::move(ready.arena),
                   ready.received_at);
  }
}

RpcServer::ClientHistory& RpcServer::HistoryOf(std::uint64_t nonce) {
  return history_.try_emplace(nonce, scheduler()).first->second;
}

SimDuration RpcServer::RetryAfterHint() const noexcept {
  // Pressure-scaled: base at an empty queue, 2x base at a full one.
  const std::size_t cap = std::max<std::size_t>(params_.queue_capacity, 1);
  const std::size_t depth = std::min(admission_queue_depth(), cap);
  return params_.retry_after_base +
         params_.retry_after_base * depth / cap;
}

void RpcServer::RejectOverload(const net::Address& from, const CallId& call,
                               AdmissionEvent::Action action,
                               Priority priority) {
  LogAdmission(priority, action);
  HistoryOf(call.client_nonce).in_progress.erase(call.seq);
  ReplyFrame reply;
  reply.call = call;
  reply.code = StatusCode::kResourceExhausted;
  reply.error_message = "server overloaded";
  reply.retry_after = RetryAfterHint();
  // Cached: shed means *never executed*, so a retransmission of this
  // call id must get the same rejection rather than a second admission
  // roll (which could execute work the caller was already told is shed).
  SendAndCache(from, call, EncodeReply(reply));
}

void RpcServer::LogAdmission(Priority priority,
                             AdmissionEvent::Action action) {
  if (admission_log_ == nullptr) return;
  AdmissionEvent ev;
  ev.at = scheduler().now();
  ev.priority = priority;
  ev.action = action;
  ev.depth = static_cast<std::uint32_t>(admission_queue_depth());
  ev.worst_waiting = kPriorityLevels;
  for (std::size_t level = kPriorityLevels; level-- > 0;) {
    if (!queue_[level].empty()) {
      ev.worst_waiting = static_cast<std::uint8_t>(level);
      break;
    }
  }
  admission_log_->push_back(ev);
}

sim::Co<void> RpcServer::Execute(net::Address from, RequestFrame request,
                                 OwnedBytes arena, SimTime received_at) {
  // `arena` is not read here by name: its whole job is to live in this
  // coroutine's frame so request.args stays valid across suspensions.
  (void)arena;
  const std::uint64_t born = generation_;
  Result<Bytes> outcome = Status(StatusCode::kInternal);  // set below

  const auto obj = objects_.find(request.object);
  if (obj == objects_.end()) {
    stats_.unknown_object++;
    outcome = NotFoundError("no such object: " + request.object.ToString());
  } else if (const Handler* handler = obj->second->Find(request.method);
             handler == nullptr) {
    stats_.unknown_method++;
    outcome = NotFoundError("no such method: " + std::to_string(request.method));
  } else {
    stats_.executions++;
    const SimTime dispatched = scheduler().now();
    queue_wait_.Record(dispatched - received_at);
    obs::TraceContext trace = request.trace;
    if (spans_ != nullptr && request.trace.active()) {
      // The execution is a child of the caller's wire span; the handler
      // sees the child so its own downstream calls nest under it.
      trace = spans_->Begin(
          request.trace, "exec m" + std::to_string(request.method),
          dispatched);
    }
    outcome = co_await (*handler)(request.args, trace);
    if (spans_ != nullptr && trace.active() && trace != request.trace) {
      spans_->End(trace, scheduler().now(), outcome.status());
    }
    exec_latency_.Record(scheduler().now() - dispatched);
  }

  // The process crashed while this handler ran: the execution dies with
  // it — no reply, no cache entry, and no admission bookkeeping (Reset
  // already zeroed the running count and dropped the queue).
  if (born != generation_) co_return;

  SendReply(from, request.call, std::move(outcome));

  ClientHistory& hist = HistoryOf(request.call.client_nonce);
  hist.in_progress.erase(request.call.seq);

  FinishExecution();
}

void RpcServer::SendReply(const net::Address& to, const CallId& call,
                          Result<Bytes> outcome) {
  ReplyFrame reply;
  reply.call = call;
  if (outcome.ok()) {
    reply.code = StatusCode::kOk;
    reply.result = View(*outcome);
  } else {
    reply.code = outcome.status().code();
    reply.error_message = outcome.status().message();
  }
  SendAndCache(to, call, EncodeReply(reply));
}

void RpcServer::SendAndCache(const net::Address& to, const CallId& call,
                             Bytes encoded) {
  // Sending copies the encoded reply into the datagram; the encoded
  // bytes then move into the cache, which answers retransmissions
  // straight from them.
  (void)endpoint_->Send(to, View(encoded));
  ClientHistory& hist = HistoryOf(call.client_nonce);
  hist.replies[call.seq] = std::move(encoded);
  hist.order.push_back(call.seq);
  while (hist.order.size() > params_.reply_cache_per_client) {
    hist.replies.erase(hist.order.front());
    hist.order.pop_front();
  }
}

}  // namespace proxy::rpc

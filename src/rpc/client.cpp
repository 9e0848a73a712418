#include "rpc/client.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/log.h"

namespace proxy::rpc {

RpcClient::RpcClient(net::Endpoint& endpoint, std::uint64_t nonce)
    : RpcClient(endpoint, nonce, BreakerParams{}) {}

RpcClient::RpcClient(net::Endpoint& endpoint, std::uint64_t nonce,
                     BreakerParams breaker)
    : endpoint_(&endpoint), nonce_(nonce), rng_(nonce ^ 0x9e3779b97f4a7c15ULL),
      breaker_params_(breaker),
      pending_(endpoint.scheduler().allocator<PendingMap::value_type>()) {
  endpoint_->SetHandler([this](const net::Address& from, OwnedBytes payload) {
    OnDatagram(from, std::move(payload));
  });
}

void RpcClient::BindMetrics(obs::MetricScope& scope) {
  scope.Attach("rpc.client.calls_started", &stats_.calls_started);
  scope.Attach("rpc.client.calls_ok", &stats_.calls_ok);
  scope.Attach("rpc.client.calls_failed", &stats_.calls_failed);
  scope.Attach("rpc.client.retransmissions", &stats_.retransmissions);
  scope.Attach("rpc.client.timeouts", &stats_.timeouts);
  scope.Attach("rpc.client.stray_replies", &stats_.stray_replies);
  scope.Attach("rpc.client.spoofed_replies", &stats_.spoofed_replies);
  scope.Attach("rpc.client.deadline_expirations", &stats_.deadline_expirations);
  scope.Attach("rpc.client.breaker_opens", &stats_.breaker_opens);
  scope.Attach("rpc.client.breaker_fast_fails", &stats_.breaker_fast_fails);
  scope.Attach("rpc.client.rejected_pushback", &stats_.rejected_pushback);
  scope.Attach("rpc.client.attempt_budget_stops", &stats_.attempt_budget_stops);
  scope.Attach("rpc.client.retry_budget_stops", &stats_.retry_budget_stops);
  scope.Attach("rpc.client.call_ns", &call_latency_);
}

bool RpcClient::CircuitOpen(const net::Address& dest) const {
  const auto it = breakers_.find(dest);
  if (it == breakers_.end() || !it->second.open) return false;
  const Breaker& br = it->second;
  // Open but cooled down and not yet probing: the next call is admitted.
  if (!br.probing && endpoint_->scheduler().now() >= br.open_until) {
    return false;
  }
  return true;
}

sim::Future<RpcResult> RpcClient::Call(const net::Address& to,
                                       ObjectId object, std::uint32_t method,
                                       BytesView args,
                                       const CallOptions& options) {
  stats_.calls_started++;
  const std::uint64_t seq = next_seq_++;

  auto [it, inserted] = pending_.try_emplace(seq, scheduler());
  PendingCall& call = it->second;
  call.dest = to;
  call.options = options;
  call.attempts = 1;
  call.started_at = scheduler().now();

  auto future = call.promise.future();

  // Circuit breaker: while open, fail fast instead of feeding a retry
  // storm into a partition. Once the cooldown elapses, exactly one call
  // is admitted as the half-open probe. A bypass_breaker call ignores
  // the breaker entirely (and, symmetrically, never feeds it).
  if (!options.bypass_breaker) {
    Breaker& br = breakers_[to];
    if (br.open) {
      if (br.probing || scheduler().now() < br.open_until) {
        stats_.breaker_fast_fails++;
        Finish(seq, UnavailableError("circuit open to " + to.ToString()));
        return future;
      }
      br.probing = true;
      call.is_probe = true;
    }
  }

  RequestFrame frame;
  frame.call = CallId{nonce_, seq};
  frame.object = object;
  frame.method = method;
  frame.args = args;
  frame.trace = options.trace;
  frame.priority = options.priority;
  if (options.deadline > 0) {
    call.deadline = scheduler().now() + options.deadline;
    frame.deadline = call.deadline;
  }
  // The request's two copies: args into the encoded frame, kept for
  // retransmission, and the frame into each datagram sent from it.
  call.encoded_request = EncodeRequest(frame);
  const Status sent = endpoint_->Send(to, View(call.encoded_request));
  if (!sent.ok()) {
    // Local send failure (unknown node, oversized): fail immediately.
    Finish(seq, sent);
    return future;
  }
  call.timer = scheduler().PostAfter(options.retry_interval,
                                     [this, seq] { OnRetryTimer(seq); });
  if (call.deadline != 0) {
    call.deadline_timer = scheduler().PostAfter(
        options.deadline, [this, seq] { OnDeadline(seq); });
  }
  return future;
}

void RpcClient::OnDatagram(const net::Address& from, OwnedBytes payload) {
  auto reply = DecodeReply(payload.view());
  if (!reply.ok()) {
    PROXY_LOG(kDebug, scheduler().now(), "rpc",
              "undecodable reply: " << reply.status().ToString());
    return;
  }
  if (reply->call.client_nonce != nonce_) {
    stats_.stray_replies++;
    return;
  }
  const auto it = pending_.find(reply->call.seq);
  if (it == pending_.end()) {
    // Duplicate reply to a retransmission of a call that already finished.
    stats_.stray_replies++;
    return;
  }
  // Reply authentication: an attacker who guesses the nonce+seq must not
  // be able to complete (and thereby corrupt) a call from a third
  // address. Only the destination we called may answer.
  if (reply_auth_ && from != it->second.dest) {
    stats_.stray_replies++;
    stats_.spoofed_replies++;
    PROXY_LOG(kDebug, scheduler().now(), "rpc",
              "reply for call " << reply->call.seq << " from "
                                << from.ToString() << ", expected "
                                << it->second.dest.ToString());
    return;
  }
  // Any authentic reply proves the destination reachable.
  BreakerOnContact(it->second.dest);
  if (reply->code == StatusCode::kOk) {
    // Successes are what refill the destination's retry budget: retries
    // stay proportional to the goodput the destination actually delivers.
    RetryBudget& budget = retry_budgets_[it->second.dest];
    if (!budget.initialized) {
      budget.tokens = retry_budget_params_.initial_tokens;
      budget.initialized = true;
    }
    budget.tokens = std::min(retry_budget_params_.max_tokens,
                             budget.tokens +
                                 retry_budget_params_.refill_per_success);
    // The caller decodes the result where it arrived: the datagram's
    // buffer, narrowed to it, is the payload.
    payload.Narrow(reply->result);
    Finish(reply->call.seq, RpcResult(Status::Ok(), std::move(payload)));
  } else if (reply->code == StatusCode::kObjectMoved) {
    // Forwarding hint: the payload carries the new location; the caller
    // (typically a proxy) rebinds and retries.
    payload.Narrow(reply->result);
    Finish(reply->call.seq, RpcResult(ObjectMovedError(reply->error_message),
                                      std::move(payload)));
  } else if (reply->code == StatusCode::kResourceExhausted) {
    // Server pushback: surface the retry-after hint so the proxy layer
    // can back off before re-offering the work (ProxyBase::CallRaw).
    stats_.rejected_pushback++;
    RpcResult outcome(Status(reply->code, reply->error_message));
    outcome.retry_after = reply->retry_after;
    Finish(reply->call.seq, std::move(outcome));
  } else {
    Finish(reply->call.seq, Status(reply->code, reply->error_message));
  }
}

SimDuration RpcClient::NextBackoff(PendingCall& call) {
  const SimDuration base = call.options.retry_interval;
  const SimDuration cap = call.options.max_backoff != 0
                              ? call.options.max_backoff
                              : 16 * base;
  SimDuration next = base;
  if (call.prev_backoff != 0) {
    // Decorrelated jitter: uniform in [base, 3 × previous]. Spreads a
    // fleet of synchronized retriers apart within a few attempts.
    const SimDuration hi = std::max(base, call.prev_backoff * 3);
    next = base + rng_.UniformU64(hi - base + 1);
  }
  next = std::min(next, std::max(base, cap));
  call.prev_backoff = next;
  return next;
}

void RpcClient::TimeOutCall(std::uint64_t seq, PendingCall& call,
                            std::string why) {
  stats_.timeouts++;
  if (!call.options.bypass_breaker) {
    BreakerOnTimeout(call.dest, call.is_probe);
  }
  Finish(seq, TimeoutError(std::move(why)));
}

void RpcClient::OnRetryTimer(std::uint64_t seq) {
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  PendingCall& call = it->second;
  if (call.deadline != 0 && scheduler().now() >= call.deadline) {
    // The deadline timer fires at the same instant; resolve here so the
    // call never outlives its budget.
    stats_.deadline_expirations++;
    TimeOutCall(seq, call, "deadline exceeded");
    return;
  }
  if (call.attempts > call.options.max_retries) {
    TimeOutCall(seq, call,
                "no reply after " +
                    std::to_string(call.options.max_retries) + " retries");
    return;
  }
  if (!ConsumeRetryAllowance(call.dest, call)) {
    // Retry governance says stop: the operation's shared attempt budget
    // is spent, or the destination's token bucket ran dry. One
    // transmission went unanswered and no more are allowed — fail now
    // (as a timeout: it still feeds the breaker) rather than hang.
    TimeOutCall(seq, call, "retry budget exhausted");
    return;
  }
  call.attempts++;
  stats_.retransmissions++;
  (void)endpoint_->Send(call.dest, View(call.encoded_request));
  const SimDuration backoff = NextBackoff(call);
  if (call.deadline != 0 &&
      scheduler().now() + backoff >= call.deadline) {
    // No point arming a retry past the deadline; the deadline timer
    // finishes the call.
    return;
  }
  call.timer = scheduler().PostAfter(backoff,
                                     [this, seq] { OnRetryTimer(seq); });
}

void RpcClient::OnDeadline(std::uint64_t seq) {
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  stats_.deadline_expirations++;
  TimeOutCall(seq, it->second, "deadline exceeded");
}

void RpcClient::Reset(const Status& status) {
  std::vector<std::uint64_t> seqs;
  seqs.reserve(pending_.size());
  for (const auto& [seq, call] : pending_) seqs.push_back(seq);
  std::sort(seqs.begin(), seqs.end());
  for (const std::uint64_t seq : seqs) Finish(seq, status);
  breakers_.clear();
  retry_budgets_.clear();
}

bool RpcClient::ConsumeRetryAllowance(const net::Address& dest,
                                      PendingCall& call) {
  if (!retry_governors_) return true;  // chaos bug hook: pre-hardening
  if (call.options.attempt_budget != nullptr &&
      !call.options.attempt_budget->TryConsume()) {
    stats_.attempt_budget_stops++;
    return false;
  }
  RetryBudget& budget = retry_budgets_[dest];
  if (!budget.initialized) {
    budget.tokens = retry_budget_params_.initial_tokens;
    budget.initialized = true;
  }
  if (budget.tokens < 1.0) {
    stats_.retry_budget_stops++;
    return false;
  }
  budget.tokens -= 1.0;
  return true;
}

void RpcClient::BreakerOnContact(const net::Address& dest) {
  Breaker& br = breakers_[dest];
  br.consecutive_timeouts = 0;
  br.open = false;
  br.probing = false;
  br.cooldown = 0;
}

void RpcClient::BreakerOnTimeout(const net::Address& dest, bool was_probe) {
  Breaker& br = breakers_[dest];
  br.consecutive_timeouts++;
  const SimTime now = scheduler().now();
  if (br.open) {
    if (was_probe) {
      // Half-open probe went unanswered: re-open, longer cooldown.
      br.probing = false;
      br.cooldown = std::min(
          breaker_params_.max_cooldown,
          static_cast<SimDuration>(static_cast<double>(br.cooldown) *
                                   breaker_params_.cooldown_growth));
      br.open_until = now + br.cooldown;
      stats_.breaker_opens++;
    }
    return;
  }
  if (br.consecutive_timeouts >= breaker_params_.open_after) {
    br.open = true;
    br.probing = false;
    br.cooldown = breaker_params_.cooldown;
    br.open_until = now + br.cooldown;
    stats_.breaker_opens++;
    PROXY_LOG(kInfo, now, "rpc",
              "circuit to " << dest.ToString() << " opened after "
                            << br.consecutive_timeouts
                            << " consecutive timeouts");
  }
}

void RpcClient::Finish(std::uint64_t seq, RpcResult outcome) {
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  PendingCall& call = it->second;
  if (outcome.ok()) {
    stats_.calls_ok++;
  } else {
    stats_.calls_failed++;
  }
  call_latency_.Record(scheduler().now() - call.started_at);
  // The RAII timers cancel themselves when pending_.erase destroys the
  // call below; nothing to do here.
  if (call.is_probe) {
    // Whatever ended the probe (contact, timeout, or a local error), the
    // half-open slot must not stay occupied.
    const auto br = breakers_.find(call.dest);
    if (br != breakers_.end() && br->second.open) {
      br->second.probing = false;
    }
  }
  auto promise = call.promise;  // keep alive past erase
  pending_.erase(it);
  promise.Set(std::move(outcome));
}

}  // namespace proxy::rpc

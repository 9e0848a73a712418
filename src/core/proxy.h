// ProxyBase: the local representative of a remote object.
//
// A proxy lives in the client's context, implements the service's
// interface, and encapsulates the service's distribution protocol. The
// base class provides the behaviour every proxy shares: transparent
// recovery when the target moves or its host becomes unreachable.
//
// A call that comes back OBJECT_MOVED carries a forwarding hint (an
// encoded ServiceBinding); the proxy rebinds and retries, following
// forwarding chains up to a bounded depth, without the client ever
// observing the move. A call that fails with TIMEOUT/UNAVAILABLE — the
// host may be partitioned away or gone for good — triggers one
// re-resolution through the name service (when the proxy knows the name
// it was bound under): if the authoritative binding has changed, the
// proxy adopts it and retries instead of erroring forever against a dead
// address.
//
// A subclass marshals through Call<Resp>(method, req): a plain function
// that encodes `req` and returns rpc::TypedReply (rpc/stub.h) over the
// invocation loop CallRaw, so awaiting a typed call costs CallRaw's one
// frame and no other. CallRaw is the only coroutine here.
//
// Everything beyond that — caching, batching, write-back, migrate-on-use
// — is a subclass's private protocol with its service (the concrete
// proxies live beside their services in src/services, e.g. kv.h). The
// mechanisms those protocols share are written once, here in core:
// the LRU cache (cache.h), invalidation coherence (coherence.h) and the
// self-draining write-behind batcher (batcher.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/rng.h"
#include "core/binding.h"
#include "core/runtime.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/client.h"
#include "rpc/stub.h"
#include "serde/traits.h"
#include "sim/future.h"
#include "sim/task.h"

namespace proxy::core {

/// Per-proxy tallies. Each proxy attaches its cells to the Runtime
/// registry under core.proxy.* through its own scope, which detaches
/// (folding them in) when the proxy dies, so the registry reports the
/// system-wide totals.
struct ProxyStats {
  obs::Counter calls;
  obs::Counter rebinds;       // OBJECT_MOVED recoveries
  obs::Counter failed_calls;  // non-OK outcomes surfaced to the client
  obs::Counter recoveries;    // name-service rebinds after a failure
  obs::Counter pushback_backoffs;  // waits honoring a server retry-after
};

class ProxyBase {
 public:
  /// Maximum forwarding-chain length a single call will follow.
  static constexpr int kMaxForwardHops = 8;

  /// Maximum times one call sleeps out a server's retry-after hint and
  /// re-offers the work before surfacing RESOURCE_EXHAUSTED. Small on
  /// purpose: under sustained overload the *caller* must slow down —
  /// that is graceful degradation; looping here would be a polite
  /// retry storm.
  static constexpr int kMaxPushbackRetries = 2;

  ProxyBase(Context& context, ServiceBinding binding)
      : context_(&context),
        binding_(std::move(binding)),
        pushback_rng_(context.client().nonce() ^ 0x5bd1e995u),
        call_latency_(context.metrics().histogram("core.proxy.call_ns")),
        metric_scope_(context.metrics()) {
    metric_scope_.Attach("core.proxy.calls", &stats_.calls);
    metric_scope_.Attach("core.proxy.rebinds", &stats_.rebinds);
    metric_scope_.Attach("core.proxy.failed_calls", &stats_.failed_calls);
    metric_scope_.Attach("core.proxy.recoveries", &stats_.recoveries);
    metric_scope_.Attach("core.proxy.pushback_backoffs",
                         &stats_.pushback_backoffs);
  }

  /// The stats cells detach with the scope, so a proxy must not outlive
  /// its Runtime.
  virtual ~ProxyBase() = default;

  ProxyBase(const ProxyBase&) = delete;
  ProxyBase& operator=(const ProxyBase&) = delete;

  [[nodiscard]] const ServiceBinding& binding() const noexcept {
    return binding_;
  }
  [[nodiscard]] Context& context() noexcept { return *context_; }
  [[nodiscard]] const ProxyStats& proxy_stats() const noexcept {
    return stats_;
  }

  void set_call_options(const rpc::CallOptions& options) noexcept {
    options_ = options;
  }

  /// Remembers the name-service path this proxy was bound under, enabling
  /// re-resolution when the host stops answering. Set by Acquire(); empty
  /// (no failure rebinding) for proxies built from a raw binding.
  void set_name_path(std::string path) { name_path_ = std::move(path); }
  [[nodiscard]] const std::string& name_path() const noexcept {
    return name_path_;
  }

 protected:
  /// A caching proxy's sink subscribes through its owner's Call.
  friend class InvalidationSink;

  /// Typed remote call with transparent rebinding on OBJECT_MOVED, using
  /// the proxy's ambient options. Marshals `req` now; awaiting the reply
  /// runs the invocation loop (CallRaw) and unmarshals a Resp.
  template <typename Resp, typename Req>
  rpc::TypedReply<Resp, sim::Co<Result<OwnedBytes>>> Call(
      std::uint32_t method, const Req& req) {
    return Call<Resp>(method, req, options_);
  }

  /// Typed remote call under `options` instead of the ambient ones.
  template <typename Resp, typename Req>
  rpc::TypedReply<Resp, sim::Co<Result<OwnedBytes>>> Call(
      std::uint32_t method, const Req& req, rpc::CallOptions options) {
    return rpc::AwaitReply<Resp>(
        CallRaw(method, serde::EncodeToBytes(req), std::move(options)));
  }

  /// Untyped variant for proxies that marshal manually.
  sim::Co<Result<OwnedBytes>> CallRaw(std::uint32_t method, Bytes args) {
    return CallRaw(method, std::move(args), options_);
  }

  /// The invocation loop, and the system's measurement point: the proxy
  /// is where a call's whole story (forwarding hops, recoveries, final
  /// latency) is visible, so this is where the span opens and closes.
  /// `args` lives in this frame for every hop; each hop's RpcClient::Call
  /// reads it in place. The result is the reply's window of its arrival
  /// buffer (rpc::RpcResult::payload).
  sim::Co<Result<OwnedBytes>> CallRaw(std::uint32_t method, Bytes args,
                                      rpc::CallOptions options) {
    stats_.calls++;
    const SimTime started = context_->scheduler().now();
    obs::SpanRecorder& spans = context_->spans();
    // Root of a fresh trace when the caller carried none; child span
    // otherwise. Inactive (and all recorder calls no-ops) when recording
    // is off.
    const obs::TraceContext span =
        spans.Begin(options.trace, "proxy m" + std::to_string(method), started);
    if (span.active()) options.trace = span;
    // Every proxy call carries a shared retransmission allowance: two
    // full transport legs' worth (the original binding plus one
    // recovery rebind). Callers that span several hops over one logical
    // operation (the failover proxy's passes) pass their own budget in,
    // and this respects it. Each hop is awaited here, so this frame
    // outlives every call that carries the budget.
    rpc::AttemptBudget budget(options.max_retries * 2);
    if (options.attempt_budget == nullptr) options.attempt_budget = &budget;

    Result<OwnedBytes> outcome = Status(StatusCode::kUnavailable);  // set below
    bool recovery_tried = false;
    int pushback_waits = 0;
    SimDuration prev_pushback_wait = 0;
    for (int hop = 0;; ++hop) {
      if (hop > kMaxForwardHops) {
        outcome = UnavailableError("forwarding chain exceeded " +
                                   std::to_string(kMaxForwardHops) + " hops");
        break;
      }
      rpc::RpcResult raw = co_await context_->client().Call(
          binding_.server, binding_.object, method, View(args), options);
      if (raw.ok()) {
        outcome = std::move(raw.payload);
        break;
      }
      if (raw.status.code() == StatusCode::kObjectMoved) {
        // Follow the forwarding hint: adopt the new binding and retry.
        Result<ServiceBinding> fwd =
            serde::DecodeFromBytes<ServiceBinding>(raw.payload.view());
        if (!fwd.ok()) {
          outcome = fwd.status();
          break;
        }
        stats_.rebinds++;
        binding_.server = fwd->server;
        binding_.object = fwd->object;
        spans.Annotate(span, context_->scheduler().now(),
                       "rebind -> " + binding_.server.ToString());
        continue;
      }
      // Server pushback: it is alive but shedding load, and told us how
      // long to stay away. Honor the hint with decorrelated jitter
      // (uniform in [hint, max(2×hint, 3×previous wait)]) so a fleet of
      // rejected callers does not re-offer its work in lockstep, then
      // retry — a bounded number of times, after which the exhaustion
      // surfaces to the caller (whose degradation hooks take over).
      if (raw.status.code() == StatusCode::kResourceExhausted &&
          raw.retry_after > 0 && pushback_waits < kMaxPushbackRetries) {
        pushback_waits++;
        stats_.pushback_backoffs++;
        const SimDuration lo = raw.retry_after;
        const SimDuration hi =
            std::max(2 * raw.retry_after, 3 * prev_pushback_wait);
        const SimDuration wait = lo + pushback_rng_.UniformU64(hi - lo + 1);
        prev_pushback_wait = wait;
        spans.Annotate(span, context_->scheduler().now(),
                       "pushback: retry-after " +
                           std::to_string(raw.retry_after) + "ns");
        co_await sim::SleepFor(context_->scheduler(), wait);
        continue;
      }
      // The host stopped answering (or the breaker declared it down):
      // ask the name service where the object lives *now*. The cached
      // entry is what just failed, so bypass the cache. A single attempt
      // per call: if the fresh binding is unchanged the failure stands.
      if ((raw.status.code() == StatusCode::kTimeout ||
           raw.status.code() == StatusCode::kUnavailable) &&
          !name_path_.empty() && !recovery_tried) {
        recovery_tried = true;
        context_->cached_names().Invalidate(name_path_);
        Result<ServiceBinding> fresh =
            co_await context_->names().ResolvePath(name_path_, 16,
                                                   options.trace);
        if (fresh.ok() && fresh->interface == binding_.interface &&
            !(fresh->server == binding_.server &&
              fresh->object == binding_.object)) {
          stats_.rebinds++;
          stats_.recoveries++;
          binding_.server = fresh->server;
          binding_.object = fresh->object;
          spans.Annotate(span, context_->scheduler().now(),
                         "recovered via " + name_path_ + " -> " +
                             binding_.server.ToString());
          continue;
        }
      }
      outcome = raw.status;
      break;
    }
    if (!outcome.ok()) {
      stats_.failed_calls++;
    }
    const SimTime ended = context_->scheduler().now();
    call_latency_.Record(ended - started);
    spans.End(span, ended, outcome.status());
    co_return outcome;
  }

  rpc::CallOptions options_;

 private:
  Context* context_;
  ServiceBinding binding_;
  ProxyStats stats_;
  std::string name_path_;
  /// Pushback jitter; seeded from the context's client nonce so replays
  /// stay byte-identical.
  Rng pushback_rng_;
  obs::Histogram& call_latency_;
  obs::MetricScope metric_scope_;  // after the cells it attaches
};

}  // namespace proxy::core

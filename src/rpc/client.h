// RPC client runtime.
//
// One RpcClient serves a whole context: it owns an endpoint, matches
// replies to outstanding calls, retransmits on timeout (the server's
// duplicate filter makes this safe — together they give at-most-once
// execution), and fails calls whose retry budget is exhausted.
//
// The retry policy is the client's, not the application's (the proxy
// principle: robustness lives behind the invocation boundary):
//   - retransmission intervals grow exponentially with decorrelated
//     jitter, drawn from a generator seeded by the client nonce, so a
//     fleet of clients facing the same outage does not retry in lockstep
//     (and every run is still replayable);
//   - an optional per-call deadline bounds the total time a call may
//     spend, is enforced locally (fail fast, cancel retries) and is
//     carried on the wire so the server can skip expired work;
//   - a per-destination circuit breaker opens after a run of consecutive
//     timeouts, fails subsequent calls immediately (UNAVAILABLE), and
//     lets a single half-open probe through after a cooldown — retry
//     storms cannot amplify under partition.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/endpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/frame.h"
#include "sim/future.h"

namespace proxy::rpc {

/// A retransmission allowance shared across every hop of one logical
/// operation. Nested proxies each apply their own retry policy; without
/// a shared budget a single client call fans into retries-of-retries
/// (router passes × failover passes × transport retries). The budget
/// caps *retransmissions only* — a first transmission is always allowed,
/// so failover can still walk the replica set; what it cannot do is keep
/// hammering each dead replica once the operation's total allowance is
/// spent. Share one instance through CallOptions::attempt_budget across
/// the hops of one operation (see KvFailoverProxy::ReadCall/WriteCall):
/// it is a local of the coroutine that awaits every call carrying it.
class AttemptBudget {
 public:
  explicit AttemptBudget(int retransmissions) noexcept
      : remaining_(retransmissions) {}

  /// Consumes one retransmission if any remain.
  bool TryConsume() noexcept {
    if (remaining_ <= 0) return false;
    remaining_--;
    return true;
  }

  [[nodiscard]] int remaining() const noexcept { return remaining_; }

 private:
  int remaining_;
};

/// Per-call knobs — THE call-policy surface of the system. One
/// CallOptions value is accepted identically by RpcClient::Call, by
/// core::ProxyBase (ambient, via set_call_options), and by
/// the failover proxies; there is no other way to tune a call.
///
/// `retry_interval` is the *initial* retransmission backoff; each
/// unanswered attempt grows the backoff exponentially, with decorrelated
/// jitter, up to `max_backoff`. The call fails with TIMEOUT after
/// `max_retries` retransmissions go unanswered, or when `deadline`
/// elapses, whichever comes first.
///
/// Build one with designated initializers, naming only the axes that
/// differ from the defaults:
///     const rpc::CallOptions opts{.max_retries = 2,
///                                 .deadline = Milliseconds(50),
///                                 .bypass_breaker = true};
/// Inside a coroutine, build it as a named local, never as a temporary
/// in the co_await expression (DESIGN.md §7, item 1).
struct CallOptions {
  SimDuration retry_interval = Milliseconds(20);
  int max_retries = 5;
  /// Cap on a single backoff step; 0 means 16 × retry_interval.
  SimDuration max_backoff = 0;
  /// Total budget for the call, measured from Call(); 0 = none. Encoded
  /// on the wire as an absolute expiry so the server sheds expired work.
  SimDuration deadline = 0;
  /// Breaker opt-out: the call neither fast-fails while the breaker is
  /// open nor feeds the breaker's timeout tally (liveness probes and
  /// lease heartbeats must see the real link, not the breaker's memory).
  bool bypass_breaker = false;
  /// Causal trace the request carries (frame v4); inactive = untraced.
  obs::TraceContext trace = {};
  /// Admission priority the request carries (frame v5). The server's
  /// admission queue serves kHigh first and sheds kLow first.
  Priority priority = Priority::kNormal;
  /// Shared retransmission allowance for one logical operation across
  /// nested proxy hops; null = each call retries on its own policy.
  /// Not owned: the budget must outlive every call that carries it.
  AttemptBudget* attempt_budget = nullptr;
};

/// Client-side tallies. The cells are obs::Counter so the same storage
/// the accessors expose is what BindMetrics attaches to the Runtime's
/// MetricsRegistry — one counter, two views.
struct ClientStats {
  obs::Counter calls_started;
  obs::Counter calls_ok;
  obs::Counter calls_failed;  // non-OK outcome delivered to caller
  obs::Counter retransmissions;
  obs::Counter timeouts;       // calls failed specifically by timeout
  obs::Counter stray_replies;  // reply for an unknown/finished call
  obs::Counter spoofed_replies;  // reply from an address != call dest
  obs::Counter deadline_expirations;  // timeouts caused by `deadline`
  obs::Counter breaker_opens;       // closed/half-open → open edges
  obs::Counter breaker_fast_fails;  // calls rejected while open
  obs::Counter rejected_pushback;   // RESOURCE_EXHAUSTED replies received
  obs::Counter attempt_budget_stops;  // retransmissions stopped: shared
                                      // per-operation budget spent
  obs::Counter retry_budget_stops;    // retransmissions stopped: per-dest
                                      // adaptive token bucket empty
};

class RpcClient {
 public:
  /// Per-destination circuit breaker tuning. The breaker opens after
  /// `open_after` *consecutive* call timeouts to one address; while open,
  /// calls to that address fail immediately with UNAVAILABLE. After
  /// `cooldown` one probe call is let through (half-open): a reply of any
  /// kind closes the breaker, another timeout re-opens it with the
  /// cooldown grown by `cooldown_growth` (capped at `max_cooldown`).
  struct BreakerParams {
    int open_after = 5;
    SimDuration cooldown = Milliseconds(100);
    double cooldown_growth = 2.0;
    SimDuration max_cooldown = Seconds(2);
  };

  /// Per-destination adaptive retry budget: a token bucket that only OK
  /// replies refill. Every retransmission to a destination withdraws one
  /// token; when the bucket is empty the call is failed after its next
  /// unanswered wait instead of being retransmitted. The breaker cannot
  /// catch overload (an overloaded server still answers — with
  /// RESOURCE_EXHAUSTED — so contact keeps the breaker closed); the
  /// budget is what keeps timed-out traffic from amplifying into a
  /// retry storm when goodput dries up. Defaults are loose enough that
  /// healthy workloads never feel them: one token per success sustains
  /// any per-attempt round-trip failure probability below 50% (the F5
  /// loss sweep peaks at 20% each way = 36% per attempt, i.e. ~0.56
  /// retransmissions per success) — sustained retries with *no*
  /// successes are the only way to drain the bucket.
  struct RetryBudgetParams {
    double initial_tokens = 64.0;
    double max_tokens = 64.0;
    /// Tokens deposited per OK reply from the destination.
    double refill_per_success = 1.0;
  };

  /// Takes over the endpoint's handler. `nonce` must be unique among all
  /// clients in the system (mint it from a seeded Rng); it also seeds the
  /// client's jitter generator.
  RpcClient(net::Endpoint& endpoint, std::uint64_t nonce);
  RpcClient(net::Endpoint& endpoint, std::uint64_t nonce,
            BreakerParams breaker);

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Invokes `method` on `object` at `to`. The future resolves with the
  /// reply payload, the server's error, or TIMEOUT. An OBJECT_MOVED
  /// outcome carries the forwarding hint in `payload`. `args` is read
  /// only during this call: it is copied once, into the encoded request
  /// the client keeps for retransmission.
  sim::Future<RpcResult> Call(const net::Address& to, ObjectId object,
                              std::uint32_t method, BytesView args,
                              const CallOptions& options = {});

  /// Replaces the retry-budget tuning (existing buckets are re-clamped
  /// lazily; new destinations start at the new initial level).
  void set_retry_budget_params(const RetryBudgetParams& params) noexcept {
    retry_budget_params_ = params;
  }

  /// Chaos-harness fault hook: disabling retry governance reintroduces
  /// the pre-hardening retry storm (nested proxies each retry on their
  /// own policy, unbounded by the shared attempt budget or the
  /// per-destination token bucket), so the chaos sweep can prove the
  /// amplification checker detects that regression. Never disable
  /// outside adversarial tests.
  void set_testing_retry_governors(bool enabled) noexcept {
    retry_governors_ = enabled;
  }

  /// Attaches this client's counters and latency histogram through
  /// `scope` under the rpc.client.* names. Called once by the owning
  /// Context, whose scope is declared after its client; clients built
  /// outside a Runtime simply never attach (their stats remain readable
  /// through stats()).
  void BindMetrics(obs::MetricScope& scope);

  /// Chaos-harness fault hook: turning reply authentication off
  /// reintroduces the pre-hardening spoofing bug (any host that guesses
  /// nonce+seq can complete a call), so the chaos sweep can prove it
  /// detects that regression. Never disable outside adversarial tests.
  void set_testing_reply_auth(bool enabled) noexcept {
    reply_auth_ = enabled;
  }

  /// True while the breaker for `dest` rejects calls (open, cooldown not
  /// yet elapsed, or a half-open probe already in flight).
  [[nodiscard]] bool CircuitOpen(const net::Address& dest) const;

  /// Crash-stop support: fails every outstanding call with `status` (in
  /// ascending seq order, for replay determinism) and forgets all
  /// per-destination breaker state. The nonce and seq counter survive so
  /// a restarted process cannot collide with its pre-crash calls in peer
  /// reply caches.
  void Reset(const Status& status);

  [[nodiscard]] const ClientStats& stats() const noexcept { return stats_; }
  [[nodiscard]] net::Address address() const noexcept {
    return endpoint_->address();
  }
  [[nodiscard]] std::uint64_t nonce() const noexcept { return nonce_; }
  [[nodiscard]] sim::Scheduler& scheduler() noexcept {
    return endpoint_->scheduler();
  }

 private:
  struct PendingCall {
    sim::Promise<RpcResult> promise;
    net::Address dest;
    Bytes encoded_request;  // every (re)send is a view of it
    CallOptions options;
    int attempts = 0;
    SimTime started_at = 0;        // Call() entry, for the latency histogram
    SimTime deadline = 0;          // absolute; 0 = none
    SimDuration prev_backoff = 0;  // last interval (decorrelated jitter)
    bool is_probe = false;         // this call is a half-open breaker probe
    sim::Timer timer;           // next retransmission (RAII)
    sim::Timer deadline_timer;  // overall budget (RAII)

    explicit PendingCall(sim::Scheduler& sched) : promise(sched) {}
  };

  // A pending call's node lives as long as the call, so it comes from
  // the scheduler's object pool.
  using PendingMap = std::unordered_map<
      std::uint64_t, PendingCall, std::hash<std::uint64_t>,
      std::equal_to<std::uint64_t>,
      sim::SlabAllocator<std::pair<const std::uint64_t, PendingCall>>>;

  struct Breaker {
    int consecutive_timeouts = 0;
    bool open = false;
    bool probing = false;        // half-open probe in flight
    SimTime open_until = 0;
    SimDuration cooldown = 0;    // current cooldown (grows on re-open)
  };

  struct RetryBudget {
    double tokens = 0.0;
    bool initialized = false;
  };

  void OnDatagram(const net::Address& from, OwnedBytes payload);
  void OnRetryTimer(std::uint64_t seq);
  void OnDeadline(std::uint64_t seq);
  void Finish(std::uint64_t seq, RpcResult outcome);

  /// Next retransmission interval for `call` (exponential, jittered).
  SimDuration NextBackoff(PendingCall& call);

  /// Fails `seq` with TIMEOUT and feeds the breaker.
  void TimeOutCall(std::uint64_t seq, PendingCall& call, std::string why);

  // Breaker transitions.
  void BreakerOnContact(const net::Address& dest);
  void BreakerOnTimeout(const net::Address& dest, bool was_probe);

  /// True when a retransmission to `dest` is allowed: consumes one token
  /// from the destination's bucket and one unit of the call's shared
  /// attempt budget (when present). False = stop retrying this call.
  bool ConsumeRetryAllowance(const net::Address& dest, PendingCall& call);

  net::Endpoint* endpoint_;
  std::uint64_t nonce_;
  std::uint64_t next_seq_ = 1;
  bool reply_auth_ = true;
  bool retry_governors_ = true;
  Rng rng_;  // jitter; seeded from the nonce, so runs stay replayable
  BreakerParams breaker_params_;
  RetryBudgetParams retry_budget_params_;
  ClientStats stats_;
  /// End-to-end call latency (Call() to outcome), including retries and
  /// breaker fast-fails — what the caller actually waited.
  obs::Histogram call_latency_;
  PendingMap pending_;  // by seq
  std::unordered_map<net::Address, Breaker> breakers_;      // by destination
  std::unordered_map<net::Address, RetryBudget> retry_budgets_;  // by dest
};

}  // namespace proxy::rpc

// RPC server runtime.
//
// An RpcServer owns an endpoint and a table of exported objects, each
// with a method dispatch table. Handlers are coroutines, so a method can
// itself perform RPCs or sleep over simulated time. The server keeps a
// bounded per-client reply cache: a retransmitted request whose execution
// already finished gets the cached reply instead of re-executing — the
// server half of at-most-once semantics.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/endpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/frame.h"
#include "sim/task.h"

namespace proxy::rpc {

/// A method handler: decoded-by-the-callee args in, reply payload out.
/// `args` is a borrowed window of the request's arrival buffer; the
/// server keeps that buffer alive for the handler's whole execution
/// (across suspension points), so decoding may be deferred — but a
/// handler that stashes bytes past its own completion must copy them.
/// `trace` is the server-side span of this execution (child of the
/// caller's wire span), or the raw wire context when no recorder is
/// attached; a handler passes it into its own downstream CallOptions
/// (`trace`) to extend the causal tree.
using Handler = std::function<sim::Co<Result<Bytes>>(
    BytesView args, const obs::TraceContext& trace)>;

/// Dispatch table of one exported object.
class Dispatch {
 public:
  /// Registers a handler; replaces any previous binding of `method`.
  void Register(std::uint32_t method, Handler handler) {
    methods_[method] = std::move(handler);
  }

  [[nodiscard]] const Handler* Find(std::uint32_t method) const {
    const auto it = methods_.find(method);
    return it == methods_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<std::uint32_t, Handler> methods_;
};

/// Server-side tallies; obs::Counter cells, attachable to a registry
/// (see RpcClient stats for the one-counter-two-views scheme).
struct ServerStats {
  obs::Counter requests_received;
  obs::Counter executions;            // handlers actually run
  obs::Counter duplicate_suppressed;  // answered from the reply cache
  obs::Counter in_progress_dropped;   // duplicate while still executing
  obs::Counter unknown_object;
  obs::Counter unknown_method;
  obs::Counter expired_dropped;  // deadline passed before dispatch
  obs::Counter admission_queued;    // parked in the admission queue
  obs::Counter admission_rejected;  // fast-rejected RESOURCE_EXHAUSTED
  obs::Counter admission_evicted;   // queued entry displaced by a
                                    // higher-priority arrival
  obs::Counter shed_expired_queued;  // deadline expired while queued
};

/// One admission decision, for the chaos checkers. The server appends to
/// the log installed via set_admission_log (null = no recording): the
/// no-priority-inversion and bounded-queue invariants are statements
/// about these decisions, not about what clients eventually observe
/// through the network.
struct AdmissionEvent {
  enum class Action : std::uint8_t {
    kRun = 0,          // dispatched immediately
    kQueue = 1,        // parked in the admission queue
    kReject = 2,       // fast-rejected: no capacity, nothing to evict
    kEvict = 3,        // displaced from the queue by a better arrival
    kShedExpired = 4,  // deadline expired while queued
  };

  SimTime at = 0;
  Priority priority = Priority::kNormal;
  Action action = Action::kRun;
  /// Numerically-worst (least important) priority waiting in the queue
  /// *after* this decision; kPriorityLevels when the queue is empty.
  std::uint8_t worst_waiting = kPriorityLevels;
  /// Queued entries after this decision.
  std::uint32_t depth = 0;
};

class RpcServer {
 public:
  struct Params {
    std::size_t reply_cache_per_client = 128;
    /// Admission control: ceiling on concurrently-executing handlers.
    /// 0 = unlimited (admission control off — the historical behavior).
    std::size_t max_concurrency = 0;
    /// Bounded admission queue beyond the running set; 0 = no queue
    /// (at capacity, every arrival is fast-rejected). Only meaningful
    /// with max_concurrency > 0.
    std::size_t queue_capacity = 0;
    /// Base pushback hint carried in RESOURCE_EXHAUSTED rejects; the
    /// server scales it with queue pressure (up to 2x at a full queue).
    SimDuration retry_after_base = Milliseconds(10);
  };

  /// Takes over the endpoint's handler.
  explicit RpcServer(net::Endpoint& endpoint);
  RpcServer(net::Endpoint& endpoint, Params params);

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Exports `object` under `id`. The dispatch table is shared so the
  /// owner may keep registering methods afterwards.
  Status ExportObject(ObjectId id, std::shared_ptr<Dispatch> dispatch);

  Status RemoveObject(ObjectId id);

  /// Installs a forwarding address for a migrated object: requests for
  /// `id` are answered with OBJECT_MOVED carrying `hint` (an encoded
  /// binding the proxy layer understands).
  void SetForwarding(ObjectId id, Bytes hint);

  /// Removes a forwarding hint (e.g. when a migration is rolled back).
  void ClearForwarding(ObjectId id) { forwarding_.erase(id); }

  /// Revokes `id`: the object is removed (if present) and all future
  /// requests for it are answered with PERMISSION_DENIED. Revocation of
  /// an id is permanent for the life of the server.
  void Revoke(ObjectId id);

  [[nodiscard]] bool IsRevoked(ObjectId id) const {
    return revoked_.contains(id);
  }

  /// Crash-stop support: drops the at-most-once reply cache and abandons
  /// every in-flight execution — a handler started before the crash never
  /// replies or touches the cache, exactly as if the process died mid-call.
  /// Exported objects stay registered; the owning service decides what of
  /// its own state survives via Context crash handlers.
  void Reset();

  /// Attaches counters and the execution histograms through `scope`
  /// under the rpc.server.* names (see RpcClient::BindMetrics).
  void BindMetrics(obs::MetricScope& scope);

  /// Installs the Runtime's span recorder: each execution becomes a
  /// child span of the request's wire trace, and handlers receive that
  /// span as their `trace`. Null detaches.
  void set_span_recorder(obs::SpanRecorder* recorder) noexcept {
    spans_ = recorder;
  }

  /// Reconfigures admission control on a live server (the chaos harness
  /// and benches flip it per scenario). Takes effect for the next
  /// arrival; already-queued work is not re-evaluated.
  void set_admission(std::size_t max_concurrency, std::size_t queue_capacity,
                     SimDuration retry_after_base = Milliseconds(10)) {
    params_.max_concurrency = max_concurrency;
    params_.queue_capacity = queue_capacity;
    params_.retry_after_base = retry_after_base;
  }

  /// Installs a sink for admission decisions (chaos checkers); null
  /// detaches. The log outlives the server's use of it.
  void set_admission_log(std::vector<AdmissionEvent>* log) noexcept {
    admission_log_ = log;
  }

  [[nodiscard]] std::size_t admission_running() const noexcept {
    return running_;
  }
  [[nodiscard]] std::size_t admission_queue_depth() const noexcept;
  /// High-water mark of the admission queue over the server's lifetime
  /// (survives Reset — the bounded-queue invariant is about the whole
  /// run).
  [[nodiscard]] std::size_t admission_queue_peak() const noexcept {
    return queue_peak_;
  }

  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] net::Address address() const noexcept {
    return endpoint_->address();
  }
  [[nodiscard]] sim::Scheduler& scheduler() noexcept {
    return endpoint_->scheduler();
  }

 private:
  /// One client's at-most-once history. Its nodes live as long as a
  /// call (in progress) or a bounded cache entry, so they come from the
  /// scheduler's object pool.
  struct ClientHistory {
    template <typename V>
    using BySeq = std::unordered_map<
        std::uint64_t, V, std::hash<std::uint64_t>,
        std::equal_to<std::uint64_t>,
        sim::SlabAllocator<std::pair<const std::uint64_t, V>>>;

    explicit ClientHistory(sim::Scheduler& sched)
        : replies(sched.allocator<BySeq<Bytes>::value_type>()),
          order(sched.allocator<std::uint64_t>()),
          in_progress(sched.allocator<BySeq<bool>::value_type>()) {}

    // Finished calls: seq -> encoded reply, bounded FIFO. The reply is
    // cached by move; duplicates are answered straight from these bytes.
    BySeq<Bytes> replies;
    std::deque<std::uint64_t, sim::SlabAllocator<std::uint64_t>> order;
    // Calls still executing.
    BySeq<bool> in_progress;
  };

  /// A request parked in the admission queue. Owns its arrival buffer:
  /// `request.args` stays a valid window of `arena` across the park
  /// (OwnedBytes moves keep the heap block).
  struct QueuedRequest {
    net::Address from;
    RequestFrame request;
    OwnedBytes arena;
    SimTime received_at = 0;
  };

  void OnDatagram(const net::Address& from, OwnedBytes payload);
  /// Admission decision for a decoded, non-duplicate request: run it,
  /// park it, displace a worse waiter, or fast-reject with pushback.
  void Admit(const net::Address& from, const RequestFrame& request,
             OwnedBytes arena, SimTime received_at);
  /// Dispatches the request (running_ accounting + Execute spawn).
  void StartExecution(const net::Address& from,
                      const RequestFrame& request, OwnedBytes arena,
                      SimTime received_at);
  /// Called when an execution finishes (same generation): frees the
  /// slot, then admits queued work — highest priority first, shedding
  /// entries whose deadline expired while they waited.
  void FinishExecution();
  /// RESOURCE_EXHAUSTED + retry-after. The reply is cached: a
  /// retransmission of a rejected call must see the same rejection, or
  /// "shed" would not imply "never executed".
  void RejectOverload(const net::Address& from, const CallId& call,
                      AdmissionEvent::Action action, Priority priority);
  [[nodiscard]] SimDuration RetryAfterHint() const noexcept;
  /// The history of the client with `nonce`, opened on first use.
  ClientHistory& HistoryOf(std::uint64_t nonce);
  void LogAdmission(Priority priority, AdmissionEvent::Action action);
  sim::Co<void> Execute(net::Address from, RequestFrame request,
                        OwnedBytes arena, SimTime received_at);
  void SendReply(const net::Address& to, const CallId& call,
                 Result<Bytes> outcome);
  /// Sends an encoded reply, then caches it for the at-most-once filter
  /// (bounded FIFO per client).
  void SendAndCache(const net::Address& to, const CallId& call,
                    Bytes encoded);

  net::Endpoint* endpoint_;
  Params params_;
  ServerStats stats_;
  obs::SpanRecorder* spans_ = nullptr;
  /// Receive-to-dispatch wait (admission queueing) and handler run time.
  obs::Histogram queue_wait_;
  obs::Histogram exec_latency_;
  std::uint64_t generation_ = 0;  // bumped by Reset(); fences executions
  std::size_t running_ = 0;       // executions in flight
  std::deque<QueuedRequest> queue_[kPriorityLevels];  // by priority
  std::size_t queue_peak_ = 0;
  std::vector<AdmissionEvent>* admission_log_ = nullptr;
  std::unordered_map<ObjectId, std::shared_ptr<Dispatch>> objects_;
  std::unordered_map<ObjectId, Bytes> forwarding_;
  std::unordered_set<ObjectId> revoked_;
  std::unordered_map<std::uint64_t, ClientHistory> history_;  // by nonce
};

}  // namespace proxy::rpc

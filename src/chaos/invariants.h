// Operation history and global invariant checkers.
//
// The workload records every operation it issues (kind, key/value,
// virtual start/end, outcome); at the run's quiescent point the checkers
// validate global properties over the whole history. Every check is
// *sound under uncertainty*: an operation that failed (timeout,
// breaker shed, decode error) may or may not have executed server-side,
// so the checkers only flag states no correct execution could produce.
//
//   counter-linearizable   unit increments return distinct values, and a
//                          value never runs backwards across real-time
//                          ordered operations
//   counter-final-bound    final value within [acks, acks + unknowns] and
//                          >= every acknowledged value
//   kv-integrity           a Get only ever returns a value some Put with
//                          that key actually wrote, and never one whose
//                          Put started after the Get completed
//   lock-mutex             definite-hold intervals of different owners
//                          never overlap
//   frames-destroyed       no coroutine frame of the run is alive once
//                          the run's world has been torn down
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "rpc/server.h"

namespace proxy::chaos {

enum class OpKind : std::uint8_t {
  kCtrInc = 1,
  kCtrRead = 2,
  kKvPut = 3,
  kKvGet = 4,
  kLockTry = 5,
  kLockRelease = 6,
};

enum class OpOutcome : std::uint8_t {
  kOk = 1,
  kFailed = 2,  // timeout / error: may or may not have executed
  /// The server explicitly rejected the call with RESOURCE_EXHAUSTED
  /// (admission control). Unlike kFailed this is a *definite* verdict:
  /// rejects are reply-cached, so a shed operation never executed and
  /// its effects must never become visible (CheckShedNotExecuted).
  kShed = 3,
};

struct OpRecord {
  std::uint32_t client = 0;
  std::uint64_t op = 0;       // per-client sequence
  OpKind kind = OpKind::kCtrInc;
  OpOutcome outcome = OpOutcome::kFailed;
  SimTime start = 0;
  SimTime end = 0;
  std::string key;            // kv key / lock name
  std::string value;          // kv value written or read ("" = absent)
  std::int64_t number = 0;    // counter value returned
  bool flag = false;          // kKvGet: value present; kLockTry: acquired
  /// Replication epoch reported by the replica that served a successful
  /// kv operation (0 when the op failed or the service is unreplicated).
  std::uint64_t epoch = 0;
  /// Identity (folded object id) of the replica that acknowledged a
  /// successful kv Put — the split-brain checker's evidence.
  std::uint64_t acker = 0;
  /// Sharded deployments only (recorded off the routing proxy): the
  /// shard the key hashed to, the shard-ownership epoch the serving
  /// group stamped on the reply, and that group's name. `group` empty
  /// means the op went through an unsharded binding; the sharding
  /// checkers ignore such records entirely.
  std::uint32_t shard = 0;
  std::uint64_t shard_epoch = 0;
  std::string group;
  /// Priority the op was issued at (rpc::Priority value; 0 = P0/high).
  /// Stamped by the open-loop overload generator; the priority checkers
  /// ignore records from the closed-loop workload (all default P1).
  std::uint8_t priority = 1;
};

struct History {
  std::vector<OpRecord> ops;

  OpRecord& Append(OpRecord r) {
    ops.push_back(std::move(r));
    return ops.back();
  }
};

struct Violation {
  std::string invariant;  // stable name, e.g. "counter-linearizable"
  std::string detail;

  [[nodiscard]] std::string ToString() const {
    return invariant + ": " + detail;
  }
};

std::vector<Violation> CheckCounter(const History& history,
                                    std::int64_t final_value);
std::vector<Violation> CheckKv(const History& history);
std::vector<Violation> CheckLocks(const History& history);

/// Replication invariants over the epoch-stamped kv history. Both only
/// consider operations that carry an epoch (epoch != 0), and both scope
/// comparisons to operations served by the same replica group:
/// replication epochs are per-group counters, meaningless across groups
/// (the cross-group story belongs to the sharding checkers below).
///
/// kv-durability: an acknowledged Put is never missing from a later Get
/// answered by the same group at an epoch >= the ack's epoch. (A Get
/// served at a lower epoch may legitimately come from a stale, evicted
/// replica; the workload issues no deletes, so "absent" is otherwise
/// indefensible.)
std::vector<Violation> CheckKvDurability(const History& history);

/// kv-split-brain: two different replicas of one group never acknowledge
/// writes under the same epoch.
/// kv-epoch-regression: across real-time ordered acknowledged Puts
/// served by one group (one completes before the other starts), the
/// acknowledging epoch never decreases — a deposed primary that keeps
/// acknowledging after its successor took over shows up here.
std::vector<Violation> CheckKvEpochs(const History& history);

/// Sharding invariants over router-recorded operations (group != "").
/// Both are vacuous on unsharded histories.
///
/// kv-lost-key: an acknowledged Put is never read back "absent". The
/// only exemptions a correct sharded system can produce: the Get was
/// answered under an older shard-ownership epoch (a reply raced a
/// migration commit), or by the same group at an older replication
/// epoch (a stale, deposed replica). In particular a zero shard-epoch
/// stamp on either side is *never* exempt — with fencing on, a group
/// only acknowledges keys of shards it owns, so stamp 0 on an
/// acknowledged sharded op already implies a non-owner served it.
std::vector<Violation> CheckKvLostKey(const History& history);

/// kv-split-shard: one shard, one owner. Two different groups never
/// acknowledge writes to the same shard under the same shard-ownership
/// epoch, and no group ever acknowledges a write to a shard while
/// disclaiming ownership of it (shard-epoch stamp 0).
std::vector<Violation> CheckKvSplitShard(const History& history);

/// Overload invariants over a server's admission-decision log (installed
/// via RpcServer::set_admission_log).
///
/// no-priority-inversion: at the moment a request is fast-rejected, no
/// strictly lower-priority request may be left sitting in the admission
/// queue — the arrival should have displaced it instead. Checked per
/// decision (the event records the worst waiting class *after* the
/// decision), so it is sound under any interleaving.
/// bounded-queue: no decision ever observes the queue deeper than its
/// configured capacity, and the lifetime high-water mark agrees.
std::vector<Violation> CheckAdmission(
    const std::vector<rpc::AdmissionEvent>& log, std::size_t queue_capacity,
    std::size_t queue_peak);

/// shed-means-not-executed: a Put the server shed (OpOutcome::kShed —
/// the client saw RESOURCE_EXHAUSTED, and rejects are reply-cached so no
/// retransmission can sneak it in later) must never have its unique
/// value observed by any successful Get, at any time. The generator
/// writes a distinct value per operation, so value equality identifies
/// the exact shed write.
std::vector<Violation> CheckShedNotExecuted(const History& history);

/// bounded-retry-amplification: with the retry governors on, one
/// client's total retransmissions cannot exceed its per-destination
/// token bucket's income — `initial_tokens + refill_per_success *
/// ok_replies` per destination (`destinations` = how many the client
/// talked to; the overload clients talk to exactly one). The retry-storm
/// bug (governors disabled) blows through this bound under overload.
std::vector<Violation> CheckRetryAmplification(
    std::uint64_t retransmissions, std::uint64_t ok_replies,
    std::uint64_t destinations, double initial_tokens,
    double refill_per_success, const std::string& who);

/// frames-destroyed: once the harness has destroyed the run's Runtime,
/// no coroutine frame its scheduler issued is still alive. Teardown
/// destroys every registered root and each root the frames below it, so
/// a survivor is a frame nothing owns: a root that escaped the registry,
/// or a Co kept past its world. `live_frames` is the count the
/// scheduler reports from its destructor (Scheduler::SetTeardownHook).
std::vector<Violation> CheckFramesDestroyed(std::size_t live_frames);

}  // namespace proxy::chaos

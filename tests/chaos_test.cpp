// Chaos harness suite: the smoke sweep (ctest label `chaos`), replay
// determinism, the reintroduced-bug catch, schedule minimization, and
// unit coverage for the invariant checkers and schedule generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "chaos/fault.h"
#include "chaos/harness.h"
#include "chaos/invariants.h"
#include "chaos/minimize.h"
#include "chaos/trace.h"
#include "test_util.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/lsan_interface.h>
#endif

namespace proxy::chaos {
namespace {

bool HasInvariant(const ChaosReport& report, const std::string& name) {
  return std::any_of(
      report.violations.begin(), report.violations.end(),
      [&name](const Violation& v) { return v.invariant == name; });
}

/// Finds a seed whose run (with `bug`) violates some invariant.
/// Returns 0 if none found in [1, limit].
std::uint64_t FirstViolatingSeed(Bug bug, std::uint64_t limit,
                                 ChaosReport* out = nullptr) {
  for (std::uint64_t seed = 1; seed <= limit; ++seed) {
    ChaosOptions options;
    options.seed = seed;
    options.bug = bug;
    ChaosReport report = RunChaos(options);
    if (!report.ok()) {
      if (out != nullptr) *out = std::move(report);
      return seed;
    }
  }
  return 0;
}

// --- the smoke sweep: tier-1's standing chaos coverage ---

TEST(ChaosSmoke, ThirtyTwoSeedsHoldEveryInvariant) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    ChaosOptions options;
    options.seed = seed;
    ChaosReport report = RunChaos(options);
    EXPECT_TRUE(report.ok()) << report.Summary() << "\n" << report.trace_tail;
    // The run did real work: faults fired and ops completed.
    EXPECT_GT(report.faults_applied, 0u) << "seed " << seed;
    EXPECT_GT(report.history_ops, 0u) << "seed " << seed;
    EXPECT_GE(report.final_counter, 0) << "seed " << seed;
  }
}

// Regression: a ~90ms pause of the name-service node expires the kv
// primary's lease; a backup promotes and its announce deposes the old
// primary while write frames are parked mid-mirror. Those writes were
// mirrored and acknowledged under the OLD epoch, but the reply used to
// stamp epoch_ as read after resume — the successor's epoch — so two
// distinct ackers appeared under one epoch (a fake kv-split-brain).
// Forty clients supply enough in-flight writes to land in the window
// (found by the 10x-client sweep at seed 15, ddmin'd to this one fault).
TEST(ChaosSmoke, DeposedPrimaryStampsTheEpochItsWritesWereAckedUnder) {
  ChaosOptions options;
  options.seed = 15;
  options.workload.clients = 40;
  FaultEvent pause_ns;
  pause_ns.at = Milliseconds(53) + Microseconds(477);
  pause_ns.kind = FaultKind::kPause;
  pause_ns.a = 0;  // the name-service node
  pause_ns.duration = Milliseconds(90) + Microseconds(746);
  options.schedule = std::vector<FaultEvent>{pause_ns};
  ChaosReport report = RunChaos(options);
  EXPECT_TRUE(report.ok()) << report.Summary() << "\n" << report.trace_tail;
  // The fault actually forced a failover (the race needs a successor).
  EXPECT_GE(report.kv_promotions, 1u) << report.Summary();
}

TEST(ChaosSmoke, ThirtyTwoShardedSeedsHoldEveryInvariant) {
  // The sharded topology (two 3-replica groups behind the routing proxy,
  // with online migrations through the fault window) under the same
  // 32-seed smoke. Horizon and op count are trimmed so the per-seed cost
  // stays near the unsharded sweep's despite twice the replica nodes.
  std::uint64_t moves = 0;
  std::uint64_t fencing_hits = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    ChaosOptions options;
    options.seed = seed;
    options.sharded = true;
    options.adversary.horizon = Milliseconds(600);
    options.workload.ops_per_client = 40;
    ChaosReport report = RunChaos(options);
    EXPECT_TRUE(report.ok()) << report.Summary() << "\n" << report.trace_tail;
    EXPECT_TRUE(report.sharded);
    EXPECT_GT(report.faults_applied, 0u) << "seed " << seed;
    EXPECT_GT(report.history_ops, 0u) << "seed " << seed;
    EXPECT_GE(report.shard_map_version, 1u) << "seed " << seed;
    moves += report.shard_moves_ok;
    fencing_hits += report.wrong_shard_rejections + report.wrong_shard_retries;
  }
  // The sweep exercised what it claims to cover: migrations committed
  // and stale-map corrections fired somewhere across the seeds.
  EXPECT_GT(moves, 0u);
  EXPECT_GT(fencing_hits, 0u);
}

TEST(ChaosSmoke, SixteenOverloadSeedsHoldEveryInvariant) {
  // The overload world: three open-loop priority lanes drowning one
  // admission-controlled KV server alongside the regular workload and
  // fault schedule. The admission checkers (no-priority-inversion,
  // bounded-queue, shed-not-executed) and the retry-amplification bound
  // run on every seed; the 64-seed box sweep (check.sh) widens this.
  std::uint64_t shed = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    ChaosOptions options;
    options.seed = seed;
    options.overload = true;
    ChaosReport report = RunChaos(options);
    EXPECT_TRUE(report.ok()) << report.Summary() << "\n" << report.trace_tail;
    EXPECT_TRUE(report.overload);
    EXPECT_GT(report.overload_offered, 0u) << "seed " << seed;
    EXPECT_GT(report.overload_ok, 0u) << "seed " << seed;
    shed += report.overload_rejected + report.overload_evicted +
            report.overload_deadline_shed;
  }
  // The lanes genuinely overload the server somewhere across the seeds:
  // a sweep where admission control never fires tests nothing.
  EXPECT_GT(shed, 0u);
}

// --- replay determinism ---

TEST(ChaosReplay, SameSeedReplaysByteIdentically) {
  ChaosOptions options;
  options.seed = 5;
  const ChaosReport first = RunChaos(options);
  const ChaosReport second = RunChaos(options);
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  EXPECT_EQ(first.trace_events, second.trace_events);
  EXPECT_EQ(first.history_ops, second.history_ops);
  EXPECT_EQ(first.final_counter, second.final_counter);
  EXPECT_EQ(first.violations.size(), second.violations.size());
}

TEST(ChaosReplay, DifferentSeedsDiverge) {
  ChaosOptions a, b;
  a.seed = 6;
  b.seed = 7;
  EXPECT_NE(RunChaos(a).fingerprint, RunChaos(b).fingerprint);
}

TEST(ChaosReplay, MetricsAndSpanTreesReplayByteIdentically) {
  // The observability acceptance bar: a seeded run that exercises a full
  // failover (seed 7 promotes a backup) must render the exact same
  // metric tables and span trees on every replay — down to the byte.
  ChaosOptions options;
  options.seed = 7;
  options.collect_metrics = true;
  options.collect_spans = true;
  const ChaosReport first = RunChaos(options);
  const ChaosReport second = RunChaos(options);
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  EXPECT_EQ(first.metrics_table, second.metrics_table);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  EXPECT_EQ(first.span_trees, second.span_trees);
  EXPECT_EQ(first.trace_ids, second.trace_ids);

  // The run actually produced observability output, not empty strings.
  EXPECT_GE(first.kv_promotions, 1u) << "seed 7 is expected to fail over";
  EXPECT_NE(first.metrics_table.find("rpc.client.call_ns"),
            std::string::npos);
  EXPECT_NE(first.metrics_table.find("core.proxy.calls"), std::string::npos);
  EXPECT_NE(first.metrics_table.find("svc.rkv.promotions"),
            std::string::npos);
  EXPECT_FALSE(first.trace_ids.empty());
  // Replication fan-out propagation: a traced write's mirror batches
  // (method 21 = kReplicateBatch) appear as exec children in some tree.
  EXPECT_NE(first.span_trees.find("rkv.write"), std::string::npos);
  EXPECT_NE(first.span_trees.find("exec m21"), std::string::npos);
  // Failover protocol events land in the span event log.
  EXPECT_NE(first.span_trees.find("promoted to primary"), std::string::npos);
}

TEST(ChaosReplay, ShardedRunReplaysByteIdentically) {
  // Migrations, WRONG_SHARD retries and group failovers are all inside
  // the deterministic envelope: same seed, same fingerprint.
  ChaosOptions options;
  options.seed = 11;
  options.sharded = true;
  const ChaosReport first = RunChaos(options);
  const ChaosReport second = RunChaos(options);
  EXPECT_TRUE(first.sharded);
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  EXPECT_EQ(first.trace_events, second.trace_events);
  EXPECT_EQ(first.history_ops, second.history_ops);
  EXPECT_EQ(first.shard_map_version, second.shard_map_version);
  EXPECT_EQ(first.shard_moves_ok, second.shard_moves_ok);
  EXPECT_EQ(first.wrong_shard_retries, second.wrong_shard_retries);
  EXPECT_EQ(first.violations.size(), second.violations.size());
}

// --- the harness has teeth: a known-bad build is caught ---

TEST(ChaosBugCatch, ReplyAuthRegressionCaughtAndReplaysIdentically) {
  ChaosReport violating;
  const std::uint64_t seed = FirstViolatingSeed(Bug::kReplyAuth,
                                                /*limit=*/256, &violating);
  ASSERT_NE(seed, 0u) << "reply-auth bug not caught within 256 seeds";
  EXPECT_FALSE(violating.violations.empty());

  // The reported seed replays the identical violating trace, twice.
  ChaosOptions options;
  options.seed = seed;
  options.bug = Bug::kReplyAuth;
  const ChaosReport replay1 = RunChaos(options);
  const ChaosReport replay2 = RunChaos(options);
  EXPECT_EQ(replay1.fingerprint, violating.fingerprint);
  EXPECT_EQ(replay2.fingerprint, violating.fingerprint);
  EXPECT_EQ(replay1.trace_events, violating.trace_events);
  EXPECT_EQ(replay1.violations.size(), violating.violations.size());
  EXPECT_EQ(replay2.violations.size(), violating.violations.size());
}

TEST(ChaosBugCatch, LeakedRootsCaughtByFramesDestroyed) {
  ChaosOptions options;
  options.seed = 3;
  const ChaosReport clean = RunChaos(options);
  EXPECT_TRUE(clean.ok()) << clean.Summary();

  options.bug = Bug::kLeakRoot;
  ChaosReport leaked;
  {
#if defined(__SANITIZE_ADDRESS__)
    // The demonstrator leaks the parked frames' heap on purpose.
    __lsan::ScopedDisabler leaks_expected;
#endif
    leaked = RunChaos(options);
  }
  ASSERT_EQ(leaked.violations.size(), 1u) << leaked.Summary();
  EXPECT_TRUE(HasInvariant(leaked, "frames-destroyed"));
  // The registry only matters at teardown: the run itself is the same.
  EXPECT_EQ(leaked.fingerprint, clean.fingerprint);
  EXPECT_EQ(leaked.trace_events, clean.trace_events);
}

TEST(ChaosBugCatch, SpoofedRepliesAreRejectedOnMain) {
  // With authentication on, some sweep seed must show forged replies
  // arriving for pending calls and bouncing off the from-address check.
  std::uint64_t rejected = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    ChaosOptions options;
    options.seed = seed;
    ChaosReport report = RunChaos(options);
    EXPECT_TRUE(report.ok()) << report.Summary();
    EXPECT_GT(report.forged_replies, 0u);
    rejected += report.spoofed_rejected;
  }
  EXPECT_GT(rejected, 0u);
}

TEST(ChaosBugCatch, StaleShardMapRegressionCaughtByShardingCheckers) {
  // With shard fencing disabled a group keeps serving shards it froze or
  // released, so stale-mapped routers are never corrected across
  // migrations. The sharding invariants must catch the fallout — a sweep
  // that cannot catch this known-bad build proves nothing about sharding.
  ChaosReport violating;
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s <= 64 && seed == 0; ++s) {
    ChaosOptions options;
    options.seed = s;
    options.sharded = true;
    options.bug = Bug::kStaleShardMap;
    ChaosReport report = RunChaos(options);
    if (!report.ok()) {
      violating = std::move(report);
      seed = s;
    }
  }
  ASSERT_NE(seed, 0u) << "stale-shard-map bug not caught within 64 seeds";
  EXPECT_TRUE(HasInvariant(violating, "kv-split-shard") ||
              HasInvariant(violating, "kv-lost-key"))
      << violating.Summary();

  // The violating seed replays its trace byte-identically.
  ChaosOptions options;
  options.seed = seed;
  options.sharded = true;
  options.bug = Bug::kStaleShardMap;
  const ChaosReport replay = RunChaos(options);
  EXPECT_EQ(replay.fingerprint, violating.fingerprint);
  EXPECT_EQ(replay.violations.size(), violating.violations.size());
}

TEST(ChaosBugCatch, StalePrimaryRegressionCaughtOnTheShardedTopology) {
  // With epoch fencing and the lease-lost step-down disabled, a deposed
  // group primary keeps acknowledging writes at its stale epoch. The
  // replication invariants must catch it; the sharded topology (two
  // groups, so twice the failovers per run) catches it within a few
  // seeds, where the plain one needs more than the CI window.
  ChaosReport violating;
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s <= 64 && seed == 0; ++s) {
    ChaosOptions options;
    options.seed = s;
    options.sharded = true;
    options.bug = Bug::kStalePrimary;
    ChaosReport report = RunChaos(options);
    if (!report.ok()) {
      violating = std::move(report);
      seed = s;
    }
  }
  ASSERT_NE(seed, 0u) << "stale-primary bug not caught within 64 seeds";
  EXPECT_TRUE(HasInvariant(violating, "kv-split-brain") ||
              HasInvariant(violating, "kv-durability") ||
              HasInvariant(violating, "kv-epoch-regression") ||
              HasInvariant(violating, "kv-lost-key"))
      << violating.Summary();

  // The violating seed replays its trace byte-identically.
  ChaosOptions options;
  options.seed = seed;
  options.sharded = true;
  options.bug = Bug::kStalePrimary;
  const ChaosReport replay = RunChaos(options);
  EXPECT_EQ(replay.fingerprint, violating.fingerprint);
  EXPECT_EQ(replay.trace_events, violating.trace_events);
  EXPECT_EQ(replay.violations.size(), violating.violations.size());
}

TEST(ChaosBugCatch, RetryStormRegressionCaughtByAmplificationBound) {
  // With the client retry governors disabled (the pre-hardening client),
  // partition episodes turn every blocked caller into an unbounded
  // retransmission source. The bounded-retry-amplification checker must
  // catch the storm — and the same seed must replay it byte-identically.
  ChaosReport violating;
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s <= 32 && seed == 0; ++s) {
    ChaosOptions options;
    options.seed = s;
    options.overload = true;
    options.bug = Bug::kRetryStorm;
    ChaosReport report = RunChaos(options);
    if (!report.ok()) {
      violating = std::move(report);
      seed = s;
    }
  }
  ASSERT_NE(seed, 0u) << "retry-storm bug not caught within 32 seeds";
  EXPECT_TRUE(HasInvariant(violating, "bounded-retry-amplification"))
      << violating.Summary();

  ChaosOptions options;
  options.seed = seed;
  options.overload = true;
  options.bug = Bug::kRetryStorm;
  const ChaosReport replay = RunChaos(options);
  EXPECT_EQ(replay.fingerprint, violating.fingerprint);
  EXPECT_EQ(replay.overload_retransmissions,
            violating.overload_retransmissions);
  EXPECT_EQ(replay.violations.size(), violating.violations.size());
}

TEST(ChaosReplay, OverloadRunReplaysByteIdentically) {
  ChaosOptions options;
  options.seed = 9;
  options.overload = true;
  const ChaosReport first = RunChaos(options);
  const ChaosReport second = RunChaos(options);
  EXPECT_TRUE(first.overload);
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  EXPECT_EQ(first.overload_offered, second.overload_offered);
  EXPECT_EQ(first.overload_ok, second.overload_ok);
  EXPECT_EQ(first.overload_rejected, second.overload_rejected);
  EXPECT_EQ(first.overload_queue_peak, second.overload_queue_peak);
  EXPECT_EQ(first.overload_retransmissions, second.overload_retransmissions);
  EXPECT_EQ(first.violations.size(), second.violations.size());
}

// --- minimization ---

TEST(ChaosMinimize, ShrinksScheduleAndPreservesInvariant) {
  ChaosReport violating;
  const std::uint64_t seed = FirstViolatingSeed(Bug::kReplyAuth,
                                                /*limit=*/256, &violating);
  ASSERT_NE(seed, 0u);
  ASSERT_GT(violating.schedule.size(), 1u);
  const std::string invariant = violating.violations.front().invariant;

  ChaosOptions options;
  options.seed = seed;
  options.bug = Bug::kReplyAuth;
  const MinimizeResult min =
      MinimizeSchedule(options, violating.schedule, invariant);
  EXPECT_LT(min.schedule.size(), violating.schedule.size());
  EXPECT_GT(min.schedule.size(), 0u);
  EXPECT_TRUE(HasInvariant(min.report, invariant))
      << "minimized schedule no longer violates " << invariant;
}

// --- fault schedule generation ---

TEST(ChaosSchedule, GenerationIsPureInTheSeed) {
  const AdversaryParams params;
  const auto a = GenerateSchedule(41, 10, 4, params);
  const auto b = GenerateSchedule(41, 10, 4, params);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ToString(), b[i].ToString());
  }
  auto render = [](const std::vector<FaultEvent>& s) {
    std::string out;
    for (const FaultEvent& ev : s) out += ev.ToString() + "\n";
    return out;
  };
  EXPECT_NE(render(a), render(GenerateSchedule(42, 10, 4, params)));
}

TEST(ChaosSchedule, EpisodesStayInsideTheHorizon) {
  AdversaryParams params;
  params.horizon = Milliseconds(500);
  const auto schedule = GenerateSchedule(9, 8, 4, params);
  EXPECT_FALSE(schedule.empty());
  for (const FaultEvent& ev : schedule) {
    EXPECT_LE(ev.at, params.horizon);
    EXPECT_LE(ev.at + ev.duration, params.horizon);
  }
}

// --- invariant checkers (synthetic histories) ---

OpRecord Op(std::uint32_t client, OpKind kind, OpOutcome outcome,
            SimTime start, SimTime end) {
  OpRecord r;
  r.client = client;
  r.kind = kind;
  r.outcome = outcome;
  r.start = start;
  r.end = end;
  return r;
}

TEST(ChaosInvariants, CounterDuplicateAckIsAViolation) {
  History h;
  OpRecord a = Op(0, OpKind::kCtrInc, OpOutcome::kOk, 0, 10);
  a.number = 1;
  OpRecord b = Op(1, OpKind::kCtrInc, OpOutcome::kOk, 20, 30);
  b.number = 1;  // same value acked twice: a lost update
  h.Append(a);
  h.Append(b);
  const auto violations = CheckCounter(h, 2);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().invariant, "counter-linearizable");
}

TEST(ChaosInvariants, CounterValueNeverRunsBackwards) {
  History h;
  OpRecord a = Op(0, OpKind::kCtrInc, OpOutcome::kOk, 0, 10);
  a.number = 5;
  OpRecord b = Op(1, OpKind::kCtrRead, OpOutcome::kOk, 20, 30);
  b.number = 3;  // reads 3 after 5 was acknowledged and completed
  h.Append(a);
  h.Append(b);
  ChaosReport report;
  report.violations = CheckCounter(h, 5);
  EXPECT_TRUE(HasInvariant(report, "counter-linearizable"));
}

TEST(ChaosInvariants, CounterFinalValueBounds) {
  History h;
  OpRecord a = Op(0, OpKind::kCtrInc, OpOutcome::kOk, 0, 10);
  a.number = 1;
  OpRecord b = Op(1, OpKind::kCtrInc, OpOutcome::kFailed, 20, 30);
  h.Append(a);
  h.Append(b);
  // 1 acked + 1 unknown: final value must land in [1, 2].
  EXPECT_TRUE(CheckCounter(h, 1).empty());
  EXPECT_TRUE(CheckCounter(h, 2).empty());
  EXPECT_FALSE(CheckCounter(h, 0).empty());
  EXPECT_FALSE(CheckCounter(h, 3).empty());
}

TEST(ChaosInvariants, CleanCounterHistoryPasses) {
  History h;
  OpRecord a = Op(0, OpKind::kCtrInc, OpOutcome::kOk, 0, 10);
  a.number = 1;
  OpRecord b = Op(1, OpKind::kCtrInc, OpOutcome::kOk, 5, 15);
  b.number = 2;
  OpRecord c = Op(0, OpKind::kCtrRead, OpOutcome::kOk, 20, 25);
  c.number = 2;
  h.Append(a);
  h.Append(b);
  h.Append(c);
  EXPECT_TRUE(CheckCounter(h, 2).empty());
}

TEST(ChaosInvariants, KvPhantomReadIsAViolation) {
  History h;
  OpRecord put = Op(0, OpKind::kKvPut, OpOutcome::kOk, 0, 10);
  put.key = "k";
  put.value = "real";
  OpRecord get = Op(1, OpKind::kKvGet, OpOutcome::kOk, 20, 30);
  get.key = "k";
  get.value = "phantom";  // nobody ever wrote this
  get.flag = true;
  h.Append(put);
  h.Append(get);
  const auto violations = CheckKv(h);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().invariant, "kv-integrity");
  // A failed Put still makes its value admissible (it may have executed).
  History h2;
  OpRecord lost = Op(0, OpKind::kKvPut, OpOutcome::kFailed, 0, 10);
  lost.key = "k";
  lost.value = "maybe";
  OpRecord read = Op(1, OpKind::kKvGet, OpOutcome::kOk, 20, 30);
  read.key = "k";
  read.value = "maybe";
  read.flag = true;
  h2.Append(lost);
  h2.Append(read);
  EXPECT_TRUE(CheckKv(h2).empty());
}

TEST(ChaosInvariants, LockOverlappingDefiniteHoldsAreAViolation) {
  History h;
  OpRecord a = Op(0, OpKind::kLockTry, OpOutcome::kOk, 0, 10);
  a.key = "l";
  a.flag = true;
  OpRecord b = Op(1, OpKind::kLockTry, OpOutcome::kOk, 15, 20);
  b.key = "l";
  b.flag = true;  // granted while client 0 definitely still holds it
  OpRecord rel_a = Op(0, OpKind::kLockRelease, OpOutcome::kOk, 40, 45);
  rel_a.key = "l";
  OpRecord rel_b = Op(1, OpKind::kLockRelease, OpOutcome::kOk, 50, 55);
  rel_b.key = "l";
  h.Append(a);
  h.Append(b);
  h.Append(rel_a);
  h.Append(rel_b);
  const auto violations = CheckLocks(h);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().invariant, "lock-mutex");

  // Sequential holds are fine.
  History h2;
  OpRecord c = Op(1, OpKind::kLockTry, OpOutcome::kOk, 46, 48);
  c.key = "l";
  c.flag = true;
  h2.Append(a);
  h2.Append(rel_a);
  h2.Append(c);
  h2.Append(rel_b);
  EXPECT_TRUE(CheckLocks(h2).empty());
}

/// A router-recorded sharded kv op: acknowledged, stamped with the shard
/// it hashed to, the serving group's name, its shard-ownership epoch and
/// its replication epoch.
OpRecord ShardedOp(std::uint32_t client, OpKind kind, SimTime start,
                   SimTime end, const std::string& key,
                   const std::string& group, std::uint32_t shard,
                   std::uint64_t shard_epoch, std::uint64_t epoch = 1) {
  OpRecord r = Op(client, kind, OpOutcome::kOk, start, end);
  r.key = key;
  r.group = group;
  r.shard = shard;
  r.shard_epoch = shard_epoch;
  r.epoch = epoch;
  r.flag = kind == OpKind::kKvPut;  // Gets default to "absent"
  return r;
}

TEST(ChaosInvariants, ShardLostKeyIsAViolation) {
  // An acked Put, then a real-time-later absent Get under a *newer*
  // ownership epoch: the migration lost the key in custody handoff.
  History h;
  h.Append(ShardedOp(0, OpKind::kKvPut, 0, 10, "k", "g0", 3, 1));
  h.Append(ShardedOp(1, OpKind::kKvGet, 20, 30, "k", "g1", 3, 2));
  const auto violations = CheckKvLostKey(h);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().invariant, "kv-lost-key");
}

TEST(ChaosInvariants, ShardLostKeyExemptions) {
  // Exempt: the Get was answered under an OLDER ownership epoch — its
  // reply raced a migration commit, so "absent" says nothing.
  History stale_map;
  stale_map.Append(ShardedOp(0, OpKind::kKvPut, 0, 10, "k", "g1", 3, 2));
  stale_map.Append(ShardedOp(1, OpKind::kKvGet, 20, 30, "k", "g0", 3, 1));
  EXPECT_TRUE(CheckKvLostKey(stale_map).empty());

  // Exempt: same group, lower replication epoch — a stale, deposed
  // replica answered (kv-durability's in-group exemption).
  History stale_replica;
  stale_replica.Append(
      ShardedOp(0, OpKind::kKvPut, 0, 10, "k", "g0", 3, 1, /*epoch=*/2));
  stale_replica.Append(
      ShardedOp(1, OpKind::kKvGet, 20, 30, "k", "g0", 3, 1, /*epoch=*/1));
  EXPECT_TRUE(CheckKvLostKey(stale_replica).empty());

  // Not real-time ordered (the Get started before the Put ended): no
  // claim to make.
  History concurrent;
  concurrent.Append(ShardedOp(0, OpKind::kKvPut, 0, 25, "k", "g0", 3, 1));
  concurrent.Append(ShardedOp(1, OpKind::kKvGet, 20, 30, "k", "g1", 3, 2));
  EXPECT_TRUE(CheckKvLostKey(concurrent).empty());

  // Unsharded records (group "") are outside this checker's scope.
  History unsharded;
  unsharded.Append(ShardedOp(0, OpKind::kKvPut, 0, 10, "k", "", 0, 0));
  unsharded.Append(ShardedOp(1, OpKind::kKvGet, 20, 30, "k", "", 0, 0));
  EXPECT_TRUE(CheckKvLostKey(unsharded).empty());
}

TEST(ChaosInvariants, SplitShardClaimsAreViolations) {
  // Two different groups acknowledged writes for one shard under the
  // same ownership epoch: two simultaneous owners.
  History split;
  split.Append(ShardedOp(0, OpKind::kKvPut, 0, 10, "a", "g0", 2, 3));
  split.Append(ShardedOp(1, OpKind::kKvPut, 20, 30, "b", "g1", 2, 3));
  const auto violations = CheckKvSplitShard(split);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().invariant, "kv-split-shard");

  // An ack with shard-epoch stamp 0 disclaims ownership of the very
  // shard it just accepted a write for: with fencing on this cannot
  // happen, so the zero stamp itself is the violation.
  History disclaimed;
  disclaimed.Append(ShardedOp(0, OpKind::kKvPut, 0, 10, "a", "g0", 5, 0));
  const auto zero_stamp = CheckKvSplitShard(disclaimed);
  ASSERT_FALSE(zero_stamp.empty());
  EXPECT_EQ(zero_stamp.front().invariant, "kv-split-shard");

  // One group acking the same shard repeatedly under one epoch — and
  // another epoch after a move back — is the normal course of business.
  History clean;
  clean.Append(ShardedOp(0, OpKind::kKvPut, 0, 10, "a", "g0", 2, 3));
  clean.Append(ShardedOp(1, OpKind::kKvPut, 20, 30, "b", "g0", 2, 3));
  clean.Append(ShardedOp(0, OpKind::kKvPut, 40, 50, "a", "g1", 2, 4));
  EXPECT_TRUE(CheckKvSplitShard(clean).empty());
}

// --- trace recorder on the shared raw-RPC fixture ---

TEST(ChaosTrace, RecorderFingerprintsSharedFixtureRuns) {
  auto run = [](std::uint64_t seed) {
    TraceRecorder trace;
    proxy::testing::RpcWorld w(seed);
    trace.Attach(w.sched, w.net);
    sim::LinkParams lossy;
    lossy.loss = 0.3;
    w.net.SetLink(w.node_client, w.node_server, lossy);
    rpc::CallOptions options;
    options.retry_interval = Milliseconds(5);
    options.max_retries = 50;
    for (std::uint32_t i = 0; i < 10; ++i) {
      EXPECT_TRUE(w.CallSync(i, options).ok());
    }
    return std::pair(trace.fingerprint(), trace.events());
  };
  const auto a = run(123);
  const auto b = run(123);
  EXPECT_EQ(a, b);  // same seed, same interleaving, same fingerprint
  EXPECT_GT(a.second, 0u);
  EXPECT_NE(run(124).first, a.first);
}

TEST(ChaosTrace, NotesAreOrderSensitive) {
  TraceRecorder a, b;
  a.Note(1, "x");
  a.Note(2, "y");
  b.Note(2, "y");
  b.Note(1, "x");
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.events(), b.events());
}

}  // namespace
}  // namespace proxy::chaos

// The chaos harness: one seed in, one verdict out.
//
// RunChaos(options) builds a fresh simulated world (name service, a
// counter+lock server, a replicated KV, N workload clients and a rogue
// spoofer node), arms the adversary with the seed's fault schedule,
// drives the workload through the fault window, heals everything, and
// then checks every global invariant against the recorded history. The
// entire run — topology, workload, faults, message timing — is a pure
// function of ChaosOptions, so a violating seed replays byte-identically
// (same trace fingerprint) and its schedule can be minimized by
// re-running subsets.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chaos/fault.h"
#include "chaos/invariants.h"
#include "chaos/workload.h"

namespace proxy::chaos {

/// Deliberately reintroducible regressions, for proving the harness has
/// teeth: a sweep that cannot catch a known-bad build catches nothing.
enum class Bug : std::uint8_t {
  kNone = 0,
  /// Disables the RPC client's reply from-address check (the PR-1
  /// hardening): any host that guesses nonce+seq completes a call.
  kReplyAuth = 1,
  /// Disables epoch fencing in the replicated KV: a deposed primary
  /// ignores higher-epoch batches and keeps acknowledging writes at its
  /// stale epoch. Caught by kv-epoch-regression / kv-durability.
  kStalePrimary = 2,
  /// Disables shard-ownership fencing (sharded runs): a group keeps
  /// serving keys of shards it froze or released, so a client's stale
  /// map is never corrected and its traffic lands on the wrong group
  /// across migrations. Caught by kv-split-shard / kv-lost-key.
  kStaleShardMap = 3,
  /// Disables the client-side retry governors (per-call attempt budget
  /// and per-destination retry token bucket) on the overload lanes: a
  /// congested server now breeds retransmission storms — the classic
  /// retry-amplification collapse. Caught by
  /// bounded-retry-amplification (requires --overload).
  kRetryStorm = 4,
};

struct ChaosOptions {
  std::uint64_t seed = 1;
  WorkloadParams workload;
  AdversaryParams adversary;
  /// Overrides the seed-generated fault schedule (the minimizer re-runs
  /// subsets through here). nullopt = GenerateSchedule(seed, ...).
  std::optional<std::vector<FaultEvent>> schedule;
  Bug bug = Bug::kNone;
  /// Sharded topology: the KV becomes two 3-replica groups behind a
  /// routing proxy (protocol 5), and a seeded rebalancer drives
  /// `shard_moves` online shard migrations through the fault window.
  /// The clients' code is identical either way — they Acquire the same
  /// name and speak plain IKeyValue; only the binding differs.
  bool sharded = false;
  std::uint32_t shard_moves = 3;
  /// Overload phase: a dedicated throttled KV server with a bounded
  /// admission queue, driven past its knee by three open-loop lanes (one
  /// per priority class) concurrently with the fault window. Adds the
  /// admission/shed/retry-amplification checkers to the verdict. The
  /// overload world is disjoint from the main topology (own server, own
  /// clients, own history), so it composes with --sharded and every bug.
  bool overload = false;
  /// Human-readable trace records kept for diagnosis.
  std::size_t trace_tail = 2048;
  /// Export the Runtime's MetricsRegistry into the report (table + JSON).
  bool collect_metrics = false;
  /// Enable the SpanRecorder for the whole run and render the call trees
  /// into the report. Deterministic: same seed, byte-identical render.
  bool collect_spans = false;
  /// With collect_spans: render only this trace id (0 = every tree).
  std::uint64_t trace_filter = 0;
};

struct ChaosReport {
  std::uint64_t seed = 0;
  std::vector<Violation> violations;

  /// Rolling hash over every scheduler step, network message event, and
  /// injection note — equal across runs iff the interleaving was
  /// identical.
  std::uint64_t fingerprint = 0;
  std::uint64_t trace_events = 0;

  std::vector<FaultEvent> schedule;  // as executed
  std::size_t faults_applied = 0;
  std::size_t history_ops = 0;
  std::int64_t final_counter = -1;
  std::uint64_t forged_replies = 0;    // sent by the spoofer
  std::uint64_t spoofed_rejected = 0;  // bounced off reply authentication
  std::uint64_t kv_promotions = 0;     // primary takeovers across replicas
  std::uint64_t kv_max_epoch = 0;      // highest epoch any replica reached
  std::uint64_t kv_fenced = 0;         // stale-epoch requests rejected
  bool sharded = false;                // sharded topology ran
  std::uint64_t shard_map_version = 0;     // final committed map version
  std::uint64_t shard_moves_ok = 0;        // completed migrations
  std::uint64_t shard_move_failures = 0;   // failed attempts (recoverable)
  std::uint64_t wrong_shard_rejections = 0;  // replica-side fencing hits
  std::uint64_t wrong_shard_retries = 0;   // router refresh-and-retry count
  /// Groups whose every replica ended crash-wiped (syncing at epoch 0):
  /// the schedule sequentially destroyed all copies, which volatile
  /// crash-stop storage cannot survive. Such a group is provably empty
  /// and terminal, so move recovery and the quiescence residency checks
  /// exempt it (loudly) instead of reporting protocol violations.
  std::uint64_t wiped_groups = 0;
  bool overload = false;                  // overload phase ran
  std::uint64_t overload_offered = 0;     // open-loop arrivals, all lanes
  std::uint64_t overload_ok = 0;          // completed OK (goodput)
  std::uint64_t overload_shed = 0;        // RESOURCE_EXHAUSTED verdicts
  std::uint64_t overload_rejected = 0;    // server fast-rejects
  std::uint64_t overload_evicted = 0;     // queued waiters displaced
  std::uint64_t overload_deadline_shed = 0;  // expired in queue, dropped
  std::uint64_t overload_queue_peak = 0;  // admission queue high-water
  std::uint64_t overload_retransmissions = 0;  // all lanes, client-side
  std::string trace_tail;              // populated when violations exist
  std::string metrics_table;           // collect_metrics: RenderTable()
  std::string metrics_json;            // collect_metrics: RenderJson()
  std::string span_trees;              // collect_spans: RenderAll()
  std::vector<std::uint64_t> trace_ids;  // collect_spans: every trace id

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  [[nodiscard]] std::string Summary() const;
};

/// Runs one complete chaos scenario. Deterministic in `options`.
ChaosReport RunChaos(const ChaosOptions& options);

}  // namespace proxy::chaos

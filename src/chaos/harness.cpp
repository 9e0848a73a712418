#include "chaos/harness.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "chaos/adversary.h"
#include "chaos/trace.h"
#include "common/rng.h"
#include "core/export.h"
#include "core/runtime.h"
#include "services/counter.h"
#include "services/kv.h"
#include "services/lock.h"
#include "services/register_all.h"
#include "services/replicated_kv.h"
#include "services/shard_map.h"
#include "services/shard_router.h"
#include "sim/future.h"
#include "sim/task.h"

namespace proxy::chaos {

namespace {

constexpr SimDuration kSettle = Milliseconds(300);
constexpr SimDuration kRecloseGap = Milliseconds(250);
constexpr int kRecloseAttempts = 40;

void Append(std::vector<Violation>& into, std::vector<Violation> more) {
  for (Violation& v : more) into.push_back(std::move(v));
}

}  // namespace

std::string ChaosReport::Summary() const {
  std::ostringstream out;
  out << "seed=" << seed << " fp=" << std::hex << fingerprint << std::dec
      << " events=" << trace_events << " faults=" << faults_applied << "/"
      << schedule.size() << " ops=" << history_ops
      << " ctr=" << final_counter << " forged=" << forged_replies
      << " rejected=" << spoofed_rejected
      << " promotions=" << kv_promotions << " epoch=" << kv_max_epoch
      << " fenced=" << kv_fenced;
  if (sharded) {
    out << " mapv=" << shard_map_version << " moves=" << shard_moves_ok
        << " movefail=" << shard_move_failures
        << " wrongshard=" << wrong_shard_rejections
        << " reroutes=" << wrong_shard_retries
        << " wiped=" << wiped_groups;
  }
  if (overload) {
    out << " ovl=" << overload_ok << "/" << overload_offered
        << " shed=" << overload_shed << " rejected=" << overload_rejected
        << " evicted=" << overload_evicted
        << " qshed=" << overload_deadline_shed
        << " qpeak=" << overload_queue_peak
        << " retrans=" << overload_retransmissions;
  }
  out << " violations=" << violations.size();
  for (const Violation& v : violations) out << "\n  " << v.ToString();
  return out.str();
}

ChaosReport RunChaos(const ChaosOptions& options) {
  services::RegisterAllServices();

  ChaosReport report;
  report.seed = options.seed;

  // The recorder outlives the Runtime (reverse destruction order): the
  // scheduler/network hooks it installs stay valid to the last event.
  TraceRecorder trace(options.trace_tail);

  core::Runtime::Params params;
  params.seed = options.seed;
  core::Runtime rt(params);
  if (options.collect_spans) rt.spans().set_enabled(true);
  sim::Scheduler& sched = rt.scheduler();
  trace.Attach(sched, rt.network());

  // --- topology ---
  const NodeId ns_node = rt.AddNode("ns");
  const NodeId srv_a_node = rt.AddNode("srv-a");  // counter + lock
  const NodeId srv_b_node = rt.AddNode("srv-b");  // kv primary (g0 sharded)
  const NodeId srv_c_node = rt.AddNode("srv-c");  // kv backup
  const NodeId srv_d_node = rt.AddNode("srv-d");  // kv backup
  // Sharded runs: a second 3-replica group. The shard map service rides
  // srv-a, which never crashes (like the name service, it is the
  // configuration plane, not the data plane under test).
  std::vector<NodeId> g1_nodes;
  if (options.sharded) {
    g1_nodes.push_back(rt.AddNode("srv-e"));
    g1_nodes.push_back(rt.AddNode("srv-f"));
    g1_nodes.push_back(rt.AddNode("srv-g"));
  }
  std::vector<NodeId> client_nodes;
  for (std::uint32_t i = 0; i < options.workload.clients; ++i) {
    client_nodes.push_back(rt.AddNode("client-" + std::to_string(i)));
  }
  const NodeId rogue_node = rt.AddNode("rogue");
  // Overload world: a dedicated throttled server plus one client node
  // per priority class. Disjoint from the main topology — the lanes
  // stress admission control without perturbing the other invariants'
  // workloads (beyond sharing the fault schedule's link faults, which is
  // the point: overload + partitions compose).
  std::optional<NodeId> ovl_srv_node;
  std::vector<NodeId> ovl_client_nodes;
  if (options.overload) {
    ovl_srv_node = rt.AddNode("ovl-srv");
    for (std::uint32_t i = 0; i < rpc::kPriorityLevels; ++i) {
      ovl_client_nodes.push_back(rt.AddNode("ovl-client-" + std::to_string(i)));
    }
  }
  const auto node_count = static_cast<std::uint32_t>(rt.network().node_count());

  rt.StartNameService(ns_node);
  core::Context& srv_a = rt.CreateContext(srv_a_node, "srv-a");
  core::Context& srv_b = rt.CreateContext(srv_b_node, "srv-b");
  core::Context& srv_c = rt.CreateContext(srv_c_node, "srv-c");
  core::Context& srv_d = rt.CreateContext(srv_d_node, "srv-d");
  std::vector<core::Context*> g1_ctxs;
  if (options.sharded) {
    g1_ctxs.push_back(&rt.CreateContext(g1_nodes[0], "srv-e"));
    g1_ctxs.push_back(&rt.CreateContext(g1_nodes[1], "srv-f"));
    g1_ctxs.push_back(&rt.CreateContext(g1_nodes[2], "srv-g"));
  }

  Result<services::CounterExport> ctr =
      services::ExportCounterService(srv_a, /*protocol=*/1, /*initial=*/0);
  Result<services::LockExport> lock = services::ExportLockService(srv_a);

  // The KV is a 3-way replicated group with automatic failover under the
  // name "chaos/kv": the primary's lease maintainer owns the name record,
  // and the chaos-tuned timers keep promotion well inside a crash episode.
  services::ReplicatedKvParams rparams;
  rparams.name = "chaos/kv";
  // Failure detection + promotion must fit inside a link-fault episode
  // (max_fault_len, 150ms): a partition or isolation that cuts the
  // primary off from the name service long enough deposes it while it is
  // still alive and client-reachable — the stale-primary scenario epoch
  // fencing exists for. With a 150ms TTL nothing but a crash (250ms)
  // ever promoted, and fencing went unexercised.
  rparams.lease.ttl_ns = Milliseconds(60);
  rparams.lease.renew_fraction = 0.4;
  rparams.lease.max_consecutive_failures = 2;
  rparams.watch_interval = Milliseconds(20);
  rparams.promote_stagger = Milliseconds(10);
  rparams.rejoin_interval = Milliseconds(30);
  rparams.mirror.retry_interval = Milliseconds(6);
  rparams.mirror.max_retries = 2;
  rparams.mirror.deadline = Milliseconds(40);
  rparams.testing_disable_fencing = options.bug == Bug::kStalePrimary;
  rparams.testing_disable_shard_fencing = options.bug == Bug::kStaleShardMap;
  // Sharded runs put two such groups behind the routing binding; either
  // way the clients below Acquire the same "chaos/kv" name and speak
  // plain IKeyValue — the deployment shape is invisible to them.
  constexpr std::uint32_t kNumShards = 8;
  std::optional<services::ReplicatedKvExport> kv;
  std::optional<services::ShardedKvExport> skv;
  if (options.sharded) {
    services::ShardedKvParams sparams;
    sparams.name = "chaos/kv";
    sparams.num_shards = kNumShards;
    sparams.group = rparams;
    std::vector<std::vector<core::Context*>> group_ctxs;
    group_ctxs.push_back({&srv_b, &srv_c, &srv_d});
    group_ctxs.push_back(g1_ctxs);
    auto export_sharded = [&]() -> sim::Co<void> {
      Result<services::ShardedKvExport> exported =
          co_await services::ExportShardedKv(srv_a, std::move(group_ctxs),
                                             std::move(sparams));
      if (exported.ok()) skv = std::move(*exported);
    };
    rt.Run(export_sharded());
  } else {
    Result<services::ReplicatedKvExport> exported =
        services::ExportReplicatedKv(srv_b, {&srv_c, &srv_d}, rparams);
    if (exported.ok()) kv = std::move(*exported);
  }
  if (!ctr.ok() || !lock.ok() ||
      (options.sharded ? !skv.has_value() : !kv.has_value())) {
    report.violations.push_back({"harness-setup", "service export failed"});
    return report;
  }

  bool setup_ok = true;
  auto publish = [&]() -> sim::Co<void> {
    Result<rpc::Void> a = co_await srv_a.names().RegisterService(
        "chaos/ctr", ctr->binding);
    Result<rpc::Void> b = co_await srv_a.names().RegisterService(
        "chaos/lock", lock->binding);
    setup_ok = a.ok() && b.ok();
  };
  rt.Run(publish());
  // "chaos/kv" is registered by the primary's lease heartbeat, not here;
  // give it a beat to land before the clients bind through the name.
  sched.RunFor(Milliseconds(20));

  // --- workload clients ---
  std::vector<std::unique_ptr<WorkloadClient>> clients;
  for (std::uint32_t i = 0; i < options.workload.clients; ++i) {
    core::Context& ctx =
        rt.CreateContext(client_nodes[i], "client-" + std::to_string(i));
    if (options.bug == Bug::kReplyAuth) {
      ctx.client().set_testing_reply_auth(false);
    }
    clients.push_back(
        std::make_unique<WorkloadClient>(ctx, i, options.seed));
  }

  auto bind_all = [&]() -> sim::Co<void> {
    for (auto& client : clients) {
      Result<rpc::Void> bound = co_await client->BindAll(options.workload);
      if (!bound.ok()) setup_ok = false;
    }
  };
  rt.Run(bind_all());
  if (!setup_ok) {
    report.violations.push_back(
        {"harness-setup", "publish or pre-chaos bind failed"});
    return report;
  }

  // --- overload world: throttled server + one open-loop lane per
  // priority class ---
  // Capacity model: max_concurrency / service_time = 4 / 1ms = 4000
  // ops/s; three lanes at 2000/s each offer 1.5x that, so the admission
  // queue is permanently past its knee while the lanes run. The
  // admission log feeds CheckAdmission; the lanes' history feeds
  // CheckShedNotExecuted; the lane clients' counters feed
  // CheckRetryAmplification.
  constexpr std::size_t kOvlMaxConcurrency = 4;
  constexpr std::size_t kOvlQueueCapacity = 16;
  constexpr SimDuration kOvlServiceTime = Milliseconds(1);
  struct OvlLane {
    core::Context* ctx = nullptr;
    std::unique_ptr<services::KvStub> proxy;
    OpenLoopParams params;
    OpenLoopStats stats;
  };
  std::vector<rpc::AdmissionEvent> admission_log;
  std::shared_ptr<services::KvService> ovl_impl;
  core::Context* ovl_srv = nullptr;
  std::vector<OvlLane> lanes;
  History ovl_history;
  if (options.overload) {
    ovl_srv = &rt.CreateContext(*ovl_srv_node, "ovl-srv");
    ovl_impl = std::make_shared<services::KvService>(*ovl_srv);
    const ObjectId ovl_id = ovl_srv->MintObjectId();
    const Status exported = ovl_srv->server().ExportObject(
        ovl_id, MakeThrottledKvDispatch(ovl_impl, sched, kOvlServiceTime));
    if (!exported.ok()) {
      report.violations.push_back(
          {"harness-setup", "overload server export failed"});
      return report;
    }
    ovl_srv->server().set_admission(kOvlMaxConcurrency, kOvlQueueCapacity,
                                    Milliseconds(5));
    ovl_srv->server().set_admission_log(&admission_log);
    core::ServiceBinding ovl_binding;
    ovl_binding.server = ovl_srv->server_address();
    ovl_binding.object = ovl_id;
    ovl_binding.interface =
        InterfaceIdOf(services::IKeyValue::kInterfaceName);
    ovl_binding.protocol = 1;
    lanes.resize(rpc::kPriorityLevels);
    for (std::uint32_t i = 0; i < rpc::kPriorityLevels; ++i) {
      OvlLane& lane = lanes[i];
      lane.ctx = &rt.CreateContext(ovl_client_nodes[i],
                                   "ovl-client-" + std::to_string(i));
      if (options.bug == Bug::kRetryStorm) {
        lane.ctx->client().set_testing_retry_governors(false);
      }
      lane.proxy =
          std::make_unique<services::KvStub>(*lane.ctx, ovl_binding);
      rpc::CallOptions call;
      call.deadline = Milliseconds(60);
      call.retry_interval = Milliseconds(5);
      call.max_retries = 16;
      call.priority = static_cast<rpc::Priority>(i);
      lane.proxy->set_call_options(call);
      lane.params.rate_per_sec = 2000.0;
      lane.params.duration = Milliseconds(400);
      lane.params.seed = options.seed ^ (0x07E10ADULL + i);
      lane.params.priority = static_cast<rpc::Priority>(i);
      lane.params.value_tag = "ovl" + std::to_string(i);
      // Shared key space across the lanes: a shed P2 write must stay
      // invisible to P0 readers too, and the checker can see that.
      lane.params.key_prefix = "ov";
    }
  }

  // --- adversary ---
  net::Endpoint* rogue = rt.stack(rogue_node).OpenEphemeral();
  ReplySpoofer spoofer(*rogue);
  {
    std::vector<ReplySpoofer::Target> targets;
    for (auto& client : clients) {
      rpc::RpcClient& rpc = client->context().client();
      targets.push_back({rpc.address(), rpc.nonce()});
    }
    spoofer.SetTargets(std::move(targets));
  }

  // Crash-restart targets default to the replica nodes (never the name
  // service); a caller-supplied list wins.
  AdversaryParams adversary_params = options.adversary;
  if (adversary_params.crash_targets.empty()) {
    adversary_params.crash_targets = {srv_b_node.value(), srv_c_node.value(),
                                      srv_d_node.value()};
    for (const NodeId node : g1_nodes) {
      adversary_params.crash_targets.push_back(node.value());
    }
  }
  std::vector<FaultEvent> schedule =
      options.schedule.has_value()
          ? *options.schedule
          : GenerateSchedule(options.seed, node_count,
                             options.workload.clients, adversary_params);
  Adversary adversary(rt, trace, &spoofer, std::move(schedule));
  adversary.Arm();

  // --- sharded runs: online migrations race the workload ---
  // The move plan is seed-pure; the rebalancer walks it while clients
  // keep writing, so every handoff step can collide with the schedule's
  // crashes and partitions. Failed moves are re-run to completion after
  // heal-all (MigrateShard is its own recovery procedure).
  std::unique_ptr<services::ShardRebalancer> rebalancer;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> moves;
  if (options.sharded) {
    services::ShardRebalancerParams rb;
    rb.step_attempts = 4;
    rb.step_pause = Milliseconds(15);
    rb.call.retry_interval = Milliseconds(8);
    rb.call.max_retries = 2;
    rb.call.deadline = Milliseconds(60);
    rebalancer =
        std::make_unique<services::ShardRebalancer>(srv_a, skv->binding, rb);
    Rng move_rng(SplitMix64(options.seed ^ 0x5a4d5a4dULL).Next());
    const auto group_count =
        static_cast<std::uint32_t>(skv->group_names.size());
    for (std::uint32_t m = 0; m < options.shard_moves; ++m) {
      moves.emplace_back(
          static_cast<std::uint32_t>(move_rng.UniformU64(kNumShards)),
          static_cast<std::uint32_t>(move_rng.UniformU64(group_count)));
    }
  }
  auto migration_driver = [&]() -> sim::Co<void> {
    Rng gap_rng(SplitMix64(options.seed ^ 0x3a9e3a9eULL).Next());
    for (std::size_t i = 0; i < moves.size(); ++i) {
      co_await sim::SleepFor(
          sched, Milliseconds(60) + gap_rng.UniformU64(Milliseconds(220)));
      const Status moved =
          co_await rebalancer->MigrateShard(moves[i].first, moves[i].second);
      trace.Note(sched.now(),
                 "migrate shard " + std::to_string(moves[i].first) + " -> g" +
                     std::to_string(moves[i].second) +
                     (moved.ok() ? " ok" : " failed: " + moved.ToString()));
    }
  };

  // --- drive: workload through the fault window ---
  History history;
  std::vector<sim::Future<bool>> runs;
  for (auto& client : clients) {
    runs.push_back(
        sim::Spawn(sched, client->Run(options.workload, history)));
  }
  // The overload lanes run concurrently with the fault window: admission
  // control must hold its invariants while the schedule partitions and
  // crashes the rest of the world around it.
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    runs.push_back(sim::Spawn(
        sched, RunOpenLoop(sched, *lanes[i].proxy, lanes[i].params,
                           lanes[i].stats, &ovl_history,
                           static_cast<std::uint32_t>(1000 + i))));
  }
  std::optional<sim::Future<bool>> migrations_done;
  if (options.sharded) {
    migrations_done = sim::Spawn(sched, migration_driver());
  }
  sched.RunUntil([&runs, &migrations_done] {
    return std::all_of(runs.begin(), runs.end(),
                       [](const sim::Future<bool>& f) { return f.ready(); }) &&
           (!migrations_done.has_value() || migrations_done->ready());
  });
  // Let the rest of the fault window elapse (a fast workload can finish
  // before the last scheduled onsets; their restores must still fire).
  const SimDuration horizon = options.adversary.horizon;
  if (sched.now() < horizon) sched.RunFor(horizon - sched.now());

  adversary.HealAll();
  trace.Note(sched.now(), "heal-complete; settling");
  sched.RunFor(kSettle);

  // --- sharded recovery: finish every interrupted move ---
  // A move that died mid-handoff (crashed source or destination primary,
  // lost commit ack, unreachable map) left a frozen or doubly-resident
  // shard behind; re-running the same move is the designed recovery path
  // and must converge now that the network is healed.
  //
  // Exception: a group whose every replica is crash-wiped (syncing at
  // epoch 0) can hold no state and can never elect a primary — the
  // schedule sequentially destroyed all copies, which volatile
  // crash-stop storage cannot survive by any protocol. That is a
  // fault-model limit, not a protocol bug: recovery and the residency
  // sweep exempt the group, loudly, while every history invariant stays
  // fully enforced.
  std::vector<bool> group_wiped;
  bool any_wiped = false;
  if (options.sharded) {
    for (std::size_t g = 0; g < skv->groups.size(); ++g) {
      bool wiped = true;
      for (const auto& replica : skv->groups[g].replicas) {
        if (!(replica->syncing() && replica->epoch() == 0)) {
          wiped = false;
          break;
        }
      }
      group_wiped.push_back(wiped);
      if (wiped) {
        any_wiped = true;
        report.wiped_groups++;
        trace.Note(sched.now(),
                   "group " + skv->group_names[g] +
                       " crash-wiped (every replica syncing at epoch 0); "
                       "exempting it from move recovery and the residency "
                       "sweep");
      }
    }
  }
  if (options.sharded && any_wiped) {
    // Every move's freeze/install/release touches both groups; none can
    // complete against a group that no longer exists.
    trace.Note(sched.now(), "skipping move recovery: wiped group present");
  }
  if (options.sharded && !any_wiped) {
    auto recover_moves = [&]() -> sim::Co<void> {
      for (std::size_t i = 0; i < moves.size(); ++i) {
        Status done = UnavailableError("not attempted");
        for (int attempt = 0; attempt < 10 && !done.ok(); ++attempt) {
          if (attempt > 0) co_await sim::SleepFor(sched, Milliseconds(120));
          done = co_await rebalancer->MigrateShard(moves[i].first,
                                                   moves[i].second);
        }
        if (!done.ok()) {
          report.violations.push_back(
              {"shard-move-recovery",
               "move of shard " + std::to_string(moves[i].first) + " to g" +
                   std::to_string(moves[i].second) +
                   " unfinishable after heal-all: " + done.ToString()});
        }
      }
    };
    rt.Run(recover_moves());
  }

  // --- recovery: every client must reach the counter again (breakers
  // reclose after their cooldown; partitions are gone) ---
  std::int64_t final_counter = -1;
  auto finale = [&]() -> sim::Co<void> {
    for (auto& client : clients) {
      bool reached = false;
      for (int attempt = 0; attempt < kRecloseAttempts && !reached;
           ++attempt) {
        Result<std::int64_t> r = co_await client->counter()->Read();
        if (r.ok()) {
          reached = true;
          final_counter = *r;
        } else {
          co_await sim::SleepFor(sched, kRecloseGap);
        }
      }
      if (!reached) {
        report.violations.push_back(
            {"breaker-reclose",
             "client " + std::to_string(client->index()) +
                 " cannot reach the counter after heal-all"});
      }
    }
  };
  rt.Run(finale());

  // --- sharded quiescence sweep: after recovery, every acknowledged key
  // must be resident in exactly one group — the one the final map says
  // owns its shard. A miss at the owner is a lost key; a leftover copy
  // at a non-owner is a shard served (or never released) outside its
  // custody chain. ---
  if (options.sharded) {
    auto sweep = [&]() -> sim::Co<void> {
      const services::shardwire::ShardMap final_map = skv->map_service->map();
      report.shard_map_version = final_map.version;
      core::AcquireOptions opts;
      opts.allow_direct = false;
      opts.call = options.workload.call;
      std::vector<std::vector<std::string>> listings;
      const std::vector<std::string> group_names = skv->group_names;
      for (std::size_t gi = 0; gi < group_names.size(); ++gi) {
        const std::string& name = group_names[gi];
        if (group_wiped[gi]) {
          // Provably empty (all replicas crash-wiped) and unreachable by
          // construction: an empty listing keeps the indices aligned.
          listings.emplace_back();
          continue;
        }
        Result<std::shared_ptr<services::IKeyValue>> group =
            co_await core::Acquire<services::IKeyValue>(srv_a, name, opts);
        if (!group.ok()) {
          report.violations.push_back(
              {"shard-sweep", "group " + name +
                                  " unreachable after heal-all: " +
                                  group.status().ToString()});
          co_return;
        }
        bool listed = false;
        for (int attempt = 0; attempt < kRecloseAttempts && !listed;
             ++attempt) {
          Result<std::vector<std::string>> keys = co_await (*group)->List("");
          if (keys.ok()) {
            listings.push_back(std::move(*keys));
            listed = true;
          } else {
            co_await sim::SleepFor(sched, kRecloseGap);
          }
        }
        if (!listed) {
          report.violations.push_back(
              {"shard-sweep",
               "group " + name + " unlistable after heal-all"});
          co_return;
        }
      }
      std::set<std::string> acked;
      for (const OpRecord& op : history.ops) {
        if (op.kind == OpKind::kKvPut && op.outcome == OpOutcome::kOk) {
          acked.insert(op.key);
        }
      }
      for (const std::string& key : acked) {
        const std::uint32_t shard =
            services::ShardOf(key, final_map.num_shards);
        const std::uint32_t owner = final_map.owner[shard];
        if (group_wiped[owner]) {
          // The owning group lost every copy to the schedule (see the
          // wipe exemption above). The key is gone with it, and a live
          // group may legitimately still hold a fenced remnant copy (the
          // release that would have cleared it needs the dead owner's
          // committed epoch) — neither is a custody violation.
          continue;
        }
        for (std::uint32_t g = 0; g < listings.size(); ++g) {
          const bool present = std::find(listings[g].begin(),
                                         listings[g].end(),
                                         key) != listings[g].end();
          if (g == owner && !present) {
            report.violations.push_back(
                {"kv-lost-key",
                 "acknowledged key \"" + key + "\" (shard " +
                     std::to_string(shard) + ") absent from owning group " +
                     group_names[g] + " at quiescence"});
          } else if (g != owner && present) {
            report.violations.push_back(
                {"kv-split-shard",
                 "key \"" + key + "\" (shard " + std::to_string(shard) +
                     ") still resident at non-owner " + group_names[g] +
                     " at quiescence"});
          }
        }
      }
    };
    rt.Run(sweep());
  }

  // --- verdict ---
  Append(report.violations, CheckCounter(history, final_counter));
  Append(report.violations, CheckKv(history));
  Append(report.violations, CheckLocks(history));
  Append(report.violations, CheckKvDurability(history));
  Append(report.violations, CheckKvEpochs(history));
  Append(report.violations, CheckKvLostKey(history));
  Append(report.violations, CheckKvSplitShard(history));
  if (options.overload) {
    Append(report.violations,
           CheckAdmission(admission_log, kOvlQueueCapacity,
                          ovl_srv->server().admission_queue_peak()));
    Append(report.violations, CheckShedNotExecuted(ovl_history));
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const rpc::ClientStats& cs = lanes[i].ctx->client().stats();
      Append(report.violations,
             CheckRetryAmplification(
                 cs.retransmissions.value(), cs.calls_ok.value(),
                 /*destinations=*/1,
                 rpc::RpcClient::RetryBudgetParams{}.initial_tokens,
                 rpc::RpcClient::RetryBudgetParams{}.refill_per_success,
                 "ovl-client-" + std::to_string(i)));
    }
    ovl_srv->server().set_admission_log(nullptr);
  }

  report.fingerprint = trace.fingerprint();
  report.trace_events = trace.events();
  report.schedule = adversary.schedule();
  report.faults_applied = adversary.applied();
  report.history_ops = history.ops.size();
  report.final_counter = final_counter;
  report.forged_replies = spoofer.forged();
  for (auto& client : clients) {
    report.spoofed_rejected +=
        client->context().client().stats().spoofed_replies;
  }
  {
    std::vector<services::KvReplica*> replicas;
    if (options.sharded) {
      for (const auto& group : skv->groups) {
        replicas.push_back(group.primary.get());
        for (const auto& backup : group.backup_impls) {
          replicas.push_back(backup.get());
        }
      }
    } else {
      replicas.push_back(kv->primary.get());
      for (const auto& backup : kv->backup_impls) {
        replicas.push_back(backup.get());
      }
    }
    for (services::KvReplica* replica : replicas) {
      report.kv_promotions += replica->promotions();
      report.kv_max_epoch = std::max(report.kv_max_epoch, replica->epoch());
      report.kv_fenced += replica->fenced_rejections();
      report.wrong_shard_rejections += replica->wrong_shard_rejections();
    }
  }
  if (options.sharded) {
    report.sharded = true;
    report.shard_moves_ok = rebalancer->moves();
    report.shard_move_failures = rebalancer->move_failures();
    for (auto& client : clients) {
      const auto* router =
          dynamic_cast<const services::KvShardRouterProxy*>(client->kv());
      if (router != nullptr) {
        report.wrong_shard_retries += router->wrong_shard_retries();
      }
    }
  }
  if (options.overload) {
    report.overload = true;
    for (const OvlLane& lane : lanes) {
      report.overload_offered += lane.stats.offered;
      report.overload_ok += lane.stats.ok;
      report.overload_shed += lane.stats.shed;
      report.overload_retransmissions +=
          lane.ctx->client().stats().retransmissions.value();
    }
    const rpc::ServerStats& ss = ovl_srv->server().stats();
    report.overload_rejected = ss.admission_rejected.value();
    report.overload_evicted = ss.admission_evicted.value();
    report.overload_deadline_shed = ss.shed_expired_queued.value();
    report.overload_queue_peak = ovl_srv->server().admission_queue_peak();
  }
  if (!report.violations.empty()) {
    report.trace_tail = trace.DumpTail(64);
  }
  if (options.collect_metrics) {
    report.metrics_table = rt.metrics().RenderTable();
    report.metrics_json = rt.metrics().RenderJson();
  }
  if (options.collect_spans) {
    report.span_trees = options.trace_filter != 0
                            ? rt.spans().RenderTree(options.trace_filter)
                            : rt.spans().RenderAll();
    report.trace_ids = rt.spans().TraceIds();
  }
  return report;
}

}  // namespace proxy::chaos

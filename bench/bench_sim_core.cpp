// F9 — Simulator core throughput: timer wheel, event slab, delivery.
//
// Everything else in this repo runs on sim::Scheduler, so its event
// dispatch rate bounds how much world a CI minute can simulate. This
// bench drives the core through its four load shapes:
//
//   F9a  pure timer churn: a ring of self-reposting timers — the
//        hierarchical wheel's insert/cascade/fire cycle with no
//        payload work at all.
//   F9b  cancel-heavy churn: timers armed and cancelled at random —
//        the slab's generation-stamped O(1) cancel and slot reuse.
//   F9c  RPC echo storm: concurrent closed-loop callers over loopback —
//        the full stack (marshalling, ports, delivery), where lock-step
//        callers land many arrivals on one instant, each its own event.
//   F9d  chaos-topology mixed lane: one seed of the chaos harness —
//        timers, RPC, faults and tracing blended in realistic ratios.
//
// Wall-clock events/sec is the headline number but is machine-dependent,
// so it rides in the JSONL as informational context. The gated rows are
// the deterministic ones: event counts and virtual-time throughput, all
// derived from virtual time and simulator counters (bit-identical per
// seed).

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "chaos/harness.h"
#include "services/counter.h"
#include "sim/scheduler.h"
#include "sim/task.h"

using namespace proxy;            // NOLINT
using namespace proxy::bench;     // NOLINT
using namespace proxy::services;  // NOLINT

namespace {

// F9a: ring width and total events to dispatch.
constexpr std::size_t kRingTimers = 4096;
constexpr std::uint64_t kChurnEvents = 2'000'000;
// F9b: live-slot pool and arm/cancel rounds.
constexpr std::size_t kCancelSlots = 8192;
constexpr std::uint64_t kCancelRounds = 500'000;
// F9c: concurrent callers and calls per caller.
constexpr int kStormClients = 64;
constexpr int kStormCallsEach = 200;

/// Deterministic delay source (splitmix-free xorshift: the sim's own Rng
/// would also do, but the bench must not perturb its draw sequence).
struct XorShift {
  std::uint64_t s;
  std::uint64_t Next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

double WallSeconds(std::chrono::steady_clock::time_point t0,
                   std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

struct LaneResult {
  std::uint64_t events = 0;     // scheduler events dispatched
  SimDuration virtual_ns = 0;   // virtual time covered
  double wall_sec = 0;          // machine-dependent, informational
  double events_per_virtual_sec() const {
    return virtual_ns == 0 ? 0
                           : static_cast<double>(events) * 1e9 /
                                 static_cast<double>(virtual_ns);
  }
  double wall_events_per_sec() const {
    return wall_sec == 0 ? 0 : static_cast<double>(events) / wall_sec;
  }
};

// --- F9a: pure timer churn -------------------------------------------

LaneResult TimerChurn() {
  sim::Scheduler sched;
  XorShift rng{0x9e3779b97f4a7c15ULL};
  // Each ring slot re-arms itself with a pseudo-random delay up to
  // ~65us, spreading inserts across wheel levels 0-2 and forcing
  // steady cascading.
  std::vector<std::uint64_t> remaining(kRingTimers,
                                       kChurnEvents / kRingTimers);
  std::function<void(std::size_t)> arm = [&](std::size_t i) {
    if (remaining[i] == 0) return;
    remaining[i]--;
    sched.PostAfter(rng.Next() & 0xFFFF, [&arm, i] { arm(i); }).Detach();
  };
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kRingTimers; ++i) arm(i);
  sched.Run();
  const auto t1 = std::chrono::steady_clock::now();
  return {sched.events_run(), sched.now(), WallSeconds(t0, t1)};
}

// --- F9b: cancel-heavy churn -----------------------------------------

struct CancelResult {
  LaneResult lane;
  std::uint64_t cancelled = 0;
};

CancelResult CancelChurn() {
  sim::Scheduler sched;
  XorShift rng{0xdeadbeefcafef00dULL};
  std::vector<sim::Timer> slots(kCancelSlots);
  std::uint64_t cancelled = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t round = 0; round < kCancelRounds; ++round) {
    const std::size_t i = rng.Next() % kCancelSlots;
    const std::size_t j = rng.Next() % kCancelSlots;
    // Re-arming a live slot cancels its old timer (RAII move-assign);
    // the explicit Cancel on a second slot exercises the handle path.
    if (slots[i].armed()) cancelled++;
    slots[i] = sched.PostAfter(1 + (rng.Next() & 0x3FFF), [] {});
    if (slots[j].Cancel()) cancelled++;
    // Dispatch only every fourth round: arms outpace fires, so the pool
    // stays mostly live and most rounds really do cancel armed timers
    // (the slab's recycle path, not just its insert path).
    if ((round & 3) == 0) sched.Step();
  }
  slots.clear();  // drop every live handle (auto-cancel)
  sched.Run();
  const auto t1 = std::chrono::steady_clock::now();
  return {{sched.events_run(), sched.now(), WallSeconds(t0, t1)}, cancelled};
}

// --- F9c: RPC echo storm over loopback -------------------------------

struct StormResult {
  LaneResult lane;
  double msgs_per_call = 0;
};

sim::Co<void> StormOps(std::shared_ptr<ICounter> ctr) {
  for (int i = 0; i < kStormCallsEach; ++i) {
    (void)co_await ctr->Increment(1);
  }
}

StormResult EchoStorm() {
  World w;
  auto exported = ExportCounterService(*w.server_ctx, 1, 0);
  if (!exported.ok()) std::abort();
  w.Publish("ctr", exported->binding);

  // Same node, distinct context: calls take the loopback transport,
  // where lock-step concurrent callers land on shared virtual instants.
  core::Context& ctx = w.rt->CreateContext(w.server_node, "storm-client");
  core::AcquireOptions opts;
  opts.allow_direct = false;
  std::shared_ptr<ICounter> ctr;
  auto bind = [&]() -> sim::Co<void> {
    Result<std::shared_ptr<ICounter>> c =
        co_await core::Acquire<ICounter>(ctx, "ctr", opts);
    if (c.ok()) ctr = *c;
  };
  w.rt->Run(bind());
  if (!ctr) std::abort();

  sim::Scheduler& sched = w.rt->scheduler();
  const std::uint64_t sent_before = w.rt->network().stats().messages_sent;
  const std::uint64_t events_before = sched.events_run();
  const SimTime virt_before = sched.now();

  std::vector<sim::Future<bool>> storm;
  const auto t0 = std::chrono::steady_clock::now();
  storm.reserve(kStormClients);
  for (int i = 0; i < kStormClients; ++i) {
    storm.push_back(sim::Spawn(sched, StormOps(ctr)));
  }
  sched.RunUntil([&storm] {
    for (const auto& f : storm) {
      if (!f.ready()) return false;
    }
    return true;
  });
  const auto t1 = std::chrono::steady_clock::now();

  constexpr double kOps =
      static_cast<double>(kStormClients) * kStormCallsEach;
  StormResult r;
  r.lane.events = sched.events_run() - events_before;
  r.lane.virtual_ns = sched.now() - virt_before;
  r.lane.wall_sec = WallSeconds(t0, t1);
  r.msgs_per_call =
      static_cast<double>(w.rt->network().stats().messages_sent -
                          sent_before) /
      kOps;
  return r;
}

// --- F9d: chaos-topology mixed lane ----------------------------------

struct ChaosLane {
  LaneResult lane;
  std::size_t history_ops = 0;
  std::size_t violations = 0;
};

ChaosLane ChaosMixed() {
  chaos::ChaosOptions options;
  options.seed = 7;
  const auto t0 = std::chrono::steady_clock::now();
  chaos::ChaosReport report = chaos::RunChaos(options);
  const auto t1 = std::chrono::steady_clock::now();
  ChaosLane r;
  // trace_events counts scheduler steps + network message events — the
  // same fingerprint-folded stream, so it is replay-stable by contract.
  r.lane.events = report.trace_events;
  r.lane.virtual_ns = 0;  // the harness owns its own clock window
  r.lane.wall_sec = WallSeconds(t0, t1);
  r.history_ops = report.history_ops;
  r.violations = report.violations.size();
  return r;
}

}  // namespace

int main() {
  std::printf(
      "F9: simulator core throughput — timer wheel + event slab +\n"
      "delivery (wall rates are machine-dependent; the gate holds\n"
      "only the deterministic counts and virtual rates)\n");

  const LaneResult churn = TimerChurn();
  const CancelResult cancel = CancelChurn();
  const StormResult storm = EchoStorm();
  const ChaosLane mixed = ChaosMixed();

  Table table("event dispatch by load shape",
              {"lane", "events", "virtual time", "wall events/s"});
  table.AddRow({"timer churn", FmtInt(churn.events), FmtDur(churn.virtual_ns),
                FmtDouble(churn.wall_events_per_sec(), 0)});
  table.AddRow({"cancel churn", FmtInt(cancel.lane.events),
                FmtDur(cancel.lane.virtual_ns),
                FmtDouble(cancel.lane.wall_events_per_sec(), 0)});
  table.AddRow({"rpc echo storm", FmtInt(storm.lane.events),
                FmtDur(storm.lane.virtual_ns),
                FmtDouble(storm.lane.wall_events_per_sec(), 0)});
  table.AddRow({"chaos mixed", FmtInt(mixed.lane.events), "(harness window)",
                FmtDouble(mixed.lane.wall_events_per_sec(), 0)});
  table.Print();

  std::printf(
      "\ncancel churn: %llu of %llu rounds cancelled a live timer\n"
      "echo storm: %.2f msgs/call\n"
      "chaos mixed: %zu history ops, %zu violations\n",
      static_cast<unsigned long long>(cancel.cancelled),
      static_cast<unsigned long long>(kCancelRounds), storm.msgs_per_call,
      mixed.history_ops, mixed.violations);
  if (mixed.violations != 0) return 1;

  EmitBenchJson(
      "sim_core", "timer_churn",
      {{"events_run", static_cast<double>(churn.events), true},
       {"events_per_virtual_sec", churn.events_per_virtual_sec(), true},
       {"wall_events_per_sec", churn.wall_events_per_sec(), false}});
  EmitBenchJson(
      "sim_core", "cancel_churn",
      {{"events_run", static_cast<double>(cancel.lane.events), true},
       {"timers_cancelled", static_cast<double>(cancel.cancelled), true},
       {"events_per_virtual_sec", cancel.lane.events_per_virtual_sec(), true},
       {"wall_events_per_sec", cancel.lane.wall_events_per_sec(), false}});
  EmitBenchJson(
      "sim_core", "rpc_echo_storm",
      {{"ops_per_sec_virtual",
        storm.lane.virtual_ns == 0
            ? 0
            : static_cast<double>(kStormClients) * kStormCallsEach * 1e9 /
                  static_cast<double>(storm.lane.virtual_ns),
        true},
       {"msgs_per_call", storm.msgs_per_call, true},
       {"events_run", static_cast<double>(storm.lane.events), true},
       {"wall_events_per_sec", storm.lane.wall_events_per_sec(), false}});
  EmitBenchJson(
      "sim_core", "chaos_mixed",
      {{"events_run", static_cast<double>(mixed.lane.events), true},
       {"wall_events_per_sec", mixed.lane.wall_events_per_sec(), false}});

  std::printf(
      "\nShape check: timer churn is the wheel's raw dispatch ceiling;\n"
      "cancel churn stays within ~2x of it (generation bump + slot\n"
      "reuse, no search); the storm runs about six events per call,\n"
      "as a warm stub call does, one per datagram among them; the\n"
      "chaos lane holds every invariant while blending all of the\n"
      "above.\n");
  return 0;
}

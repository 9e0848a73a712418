// F8 — Graceful degradation under overload.
//
// A KV server with a fixed capacity model (max_concurrency handlers, each
// burning a fixed virtual service time) is driven by open-loop Poisson
// lanes — arrivals independent of completions, so offered load can be
// pushed arbitrarily far past the saturation knee (a closed loop
// self-throttles and can never get there).
//
//   F8a  latency / goodput vs offered load, admission control on: the
//        knee curve. Below the knee everything completes fast; past it
//        the bounded queue + fast-reject keeps latency flat and sheds
//        the excess.
//   F8b  priority load shedding at 2x capacity: three lanes (P0/P1/P2)
//        share the same server; admission drops lowest-priority first,
//        so P0 goodput holds while P2 is shed. Gated row.
//   F8c  ablation — admission off (same concurrency, effectively
//        unbounded FIFO queue, no rejects): arrivals sit in the queue
//        until their deadline expires, and goodput collapses past the
//        knee. Gated row: the collapse must stay collapsed, or the
//        ablation no longer demonstrates anything.
//
// All numbers are virtual-time / counter derived — deterministic.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "chaos/workload.h"
#include "services/kv.h"

using namespace proxy;            // NOLINT
using namespace proxy::bench;     // NOLINT
using namespace proxy::services;  // NOLINT

namespace {

constexpr std::size_t kMaxConcurrency = 4;
constexpr std::size_t kQueueCapacity = 16;
// "Admission off": same handler concurrency, but a queue so deep nothing
// is ever rejected or displaced — the pre-admission-control server, where
// excess arrivals wait until their deadline expires instead of being
// pushed back.
constexpr std::size_t kUnboundedQueue = 100000;
constexpr SimDuration kServiceTime = Milliseconds(1);
// Capacity = kMaxConcurrency / kServiceTime.
constexpr double kCapacityPerSec = 4000.0;
constexpr SimDuration kWindow = Milliseconds(400);

struct LaneOutcome {
  chaos::OpenLoopStats stats;
  SimDuration p99 = 0;
};

/// Runs one overload scenario: `rates.size()` open-loop lanes (priority
/// P0..Pn by index when there are several, kNormal for a single lane)
/// against one throttled KV server. Returns per-lane outcomes.
std::vector<LaneOutcome> RunOverload(bool admission_on,
                                     const std::vector<double>& rates) {
  World w(/*seed=*/17);
  sim::Scheduler& sched = w.rt->scheduler();

  auto impl = std::make_shared<KvService>(*w.server_ctx);
  const ObjectId id = w.server_ctx->MintObjectId();
  const Status exported = w.server_ctx->server().ExportObject(
      id, chaos::MakeThrottledKvDispatch(impl, sched, kServiceTime));
  if (!exported.ok()) std::abort();
  w.server_ctx->server().set_admission(
      kMaxConcurrency, admission_on ? kQueueCapacity : kUnboundedQueue,
      Milliseconds(5));
  core::ServiceBinding binding;
  binding.server = w.server_ctx->server_address();
  binding.object = id;
  binding.interface = InterfaceIdOf(IKeyValue::kInterfaceName);
  binding.protocol = 1;

  std::vector<core::Context*> lane_ctxs;
  std::vector<std::unique_ptr<KvStub>> proxies;
  std::vector<chaos::OpenLoopParams> params(rates.size());
  std::vector<chaos::OpenLoopStats> stats(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const std::string label = "lane-" + std::to_string(i);
    lane_ctxs.push_back(&w.rt->CreateContext(w.rt->AddNode(label), label));
    auto stub = std::make_unique<KvStub>(*lane_ctxs.back(), binding);
    rpc::CallOptions call;
    call.deadline = Milliseconds(50);
    call.retry_interval = Milliseconds(10);
    call.max_retries = 4;
    call.priority = rates.size() > 1 ? static_cast<rpc::Priority>(i)
                                     : rpc::Priority::kNormal;
    stub->set_call_options(call);
    proxies.push_back(std::move(stub));
    params[i].rate_per_sec = rates[i];
    params[i].duration = kWindow;
    params[i].seed = 1000 + i;
    params[i].priority = call.priority;
    std::string tag = "v";
    tag += std::to_string(i);
    params[i].value_tag = std::move(tag);
  }

  std::vector<sim::Future<bool>> lanes;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    lanes.push_back(sim::Spawn(
        sched, chaos::RunOpenLoop(sched, *proxies[i], params[i], stats[i])));
  }
  sched.RunUntil([&lanes] {
    return std::all_of(lanes.begin(), lanes.end(),
                       [](const sim::Future<bool>& f) { return f.ready(); });
  });

  std::vector<LaneOutcome> out(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    out[i].stats = std::move(stats[i]);
    auto& lat = out[i].stats.ok_latencies;
    if (!lat.empty()) {
      std::sort(lat.begin(), lat.end());
      out[i].p99 = lat[lat.size() - 1 - lat.size() / 100];
    }
  }
  return out;
}

double GoodputPerSec(const chaos::OpenLoopStats& s) {
  return static_cast<double>(s.ok) * 1e9 / static_cast<double>(kWindow);
}

double OkFraction(const chaos::OpenLoopStats& s) {
  return s.offered == 0
             ? 0
             : static_cast<double>(s.ok) / static_cast<double>(s.offered);
}

}  // namespace

int main() {
  std::printf(
      "F8: graceful degradation under overload — open-loop Poisson lanes\n"
      "against a KV server with capacity %.0f ops/s (%zu handlers x %s\n"
      "service time), %s window per point\n",
      kCapacityPerSec, kMaxConcurrency, FmtDur(kServiceTime).c_str(),
      FmtDur(kWindow).c_str());

  // --- F8a: the knee curve ---
  Table knee("latency and goodput vs offered load (admission on)",
             {"offered/s", "x capacity", "ok", "shed", "failed",
              "goodput/s", "mean ok", "p99 ok"});
  for (const double rate :
       {1000.0, 2000.0, 3000.0, 4000.0, 6000.0, 8000.0}) {
    const std::vector<LaneOutcome> r = RunOverload(true, {rate});
    const chaos::OpenLoopStats& s = r[0].stats;
    knee.AddRow({FmtDouble(rate, 0), FmtDouble(rate / kCapacityPerSec, 2),
                 FmtInt(s.ok), FmtInt(s.shed), FmtInt(s.failed),
                 FmtDouble(GoodputPerSec(s), 0),
                 FmtMean(s.total_ok_latency, s.ok), FmtDur(r[0].p99)});
  }
  knee.Print();
  std::printf(
      "\nShape check: goodput climbs with offered load until the knee\n"
      "(~1x capacity), then flattens at capacity while the excess is\n"
      "shed; OK latency stays bounded because the queue is bounded.\n");

  // --- F8b: priority shedding at 2x capacity ---
  // Three equal lanes at 2x total: the server can serve half of what is
  // offered, and admission spends that capacity strictly by priority.
  const double per_lane = 2.0 * kCapacityPerSec / 3.0;
  const std::vector<LaneOutcome> on =
      RunOverload(true, {per_lane, per_lane, per_lane});
  Table prio("priority shedding at 2x capacity (admission on)",
             {"lane", "offered", "ok", "shed", "failed", "ok fraction",
              "mean ok"});
  for (std::size_t i = 0; i < on.size(); ++i) {
    const chaos::OpenLoopStats& s = on[i].stats;
    std::string lane = "P";
    lane += std::to_string(i);
    prio.AddRow({lane, FmtInt(s.offered), FmtInt(s.ok),
                 FmtInt(s.shed), FmtInt(s.failed),
                 FmtDouble(OkFraction(s), 3),
                 FmtMean(s.total_ok_latency, s.ok)});
  }
  prio.Print();
  std::printf(
      "\nShape check: P0 completes nearly everything it offers, P1 keeps\n"
      "part, P2 absorbs almost all of the shedding — the admission queue\n"
      "serves high priority first and displaces low priority first.\n");

  // --- F8c: ablation — admission off, same 2x load ---
  const std::vector<LaneOutcome> off =
      RunOverload(false, {per_lane, per_lane, per_lane});
  std::uint64_t off_offered = 0;
  std::uint64_t off_ok = 0;
  std::uint64_t on_offered = 0;
  std::uint64_t on_ok = 0;
  for (std::size_t i = 0; i < off.size(); ++i) {
    off_offered += off[i].stats.offered;
    off_ok += off[i].stats.ok;
    on_offered += on[i].stats.offered;
    on_ok += on[i].stats.ok;
  }
  Table ablation("2x capacity: admission on vs off",
                 {"config", "offered", "ok", "ok fraction"});
  ablation.AddRow({"admission on", FmtInt(on_offered), FmtInt(on_ok),
                   FmtDouble(on_offered == 0
                                 ? 0
                                 : static_cast<double>(on_ok) / on_offered,
                             3)});
  const double off_fraction =
      off_offered == 0 ? 0 : static_cast<double>(off_ok) / off_offered;
  ablation.AddRow({"admission off", FmtInt(off_offered), FmtInt(off_ok),
                   FmtDouble(off_fraction, 3)});
  ablation.Print();
  std::printf(
      "\nShape check: without admission control nothing is rejected, so\n"
      "every arrival queues until its deadline expires in line — goodput\n"
      "collapses toward zero past the knee. With it, the server keeps\n"
      "doing capacity's worth of the most important work.\n");

  // Gated rows: P0 must keep its goodput at 2x offered load, and the
  // no-admission ablation must stay collapsed (if it recovers, the
  // ablation stopped modelling the failure the tentpole exists to fix).
  EmitBenchJson("overload", "priority/x2",
                {{"p0_goodput_retention_x2", OkFraction(on[0].stats), true},
                 {"p2_ok_fraction_x2", OkFraction(on[2].stats), true}});
  EmitBenchJson("overload", "ablation/x2",
                {{"ablation_goodput_fraction_x2", off_fraction, true}});
  return 0;
}

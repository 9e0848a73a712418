// F6 — Fault recovery: what the hardened invocation path buys.
//
// Two experiments on a two-node client/server world:
//
//   A. Goodput under loss with a deadline. Sweeps link loss and measures
//      the fraction of calls that complete within a 100ms budget, their
//      latency, and the retry traffic — deadlines turn unbounded waits
//      into a measurable completion rate.
//
//   B. Outage and recovery. A client keeps calling through a partition of
//      0.5s/1s/2s under three configs: bare (retry governors disabled,
//      no breaker — the pre-hardening path, retries grow linearly with
//      outage length), budget (the per-destination retry token bucket
//      alone bounds total outage retransmissions), and budget+breaker
//      (fast-fail on top). Measures retransmissions during the outage,
//      calls shed fast, and the time from heal to the first success.
//
// All numbers are virtual time from the seeded simulator: every cell is
// reproducible bit-for-bit.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "net/endpoint.h"
#include "obs/metrics.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/stub.h"
#include "serde/traits.h"
#include "sim/network.h"

using namespace proxy;         // NOLINT
using namespace proxy::bench;  // NOLINT

namespace {

struct PingRequest {
  std::uint32_t id = 0;
  PROXY_SERDE_FIELDS(id)
};
struct PingResponse {
  std::uint32_t id = 0;
  PROXY_SERDE_FIELDS(id)
};
constexpr rpc::Method<PingRequest, PingResponse> kPing{1};

/// Raw client/server pair (no proxies): the subject here is the RPC
/// runtime itself.
struct FaultWorld {
  FaultWorld(std::uint64_t seed, rpc::RpcClient::BreakerParams breaker,
             sim::LinkParams link = sim::LinkParams{})
      : net(sched, seed) {
    node_client = net.AddNode("client");
    node_server = net.AddNode("server");
    net.SetLink(node_client, node_server, link);
    stack_client = std::make_unique<net::NodeStack>(net, node_client);
    stack_server = std::make_unique<net::NodeStack>(net, node_server);
    client = std::make_unique<rpc::RpcClient>(*stack_client->OpenEphemeral(),
                                              seed ^ 0xBE9Cu, breaker);
    server_ep = stack_server->OpenEndpoint(PortId(40));
    server = std::make_unique<rpc::RpcServer>(*server_ep);
    object = ObjectId{1, 1};
    auto dispatch = std::make_shared<rpc::Dispatch>();
    rpc::RegisterTyped(*dispatch, kPing,
                       [](PingRequest req) -> sim::Co<Result<PingResponse>> {
                         co_return PingResponse{req.id};
                       });
    if (!server->ExportObject(object, dispatch).ok()) std::abort();
    client->BindMetrics(metric_scope);
    server->BindMetrics(metric_scope);
  }

  /// Same observability footer contract as bench::World (this bench
  /// builds a raw client/server pair, so it carries its own registry).
  ~FaultWorld() {
    if (const char* flag = std::getenv("PROXY_BENCH_METRICS");
        flag != nullptr && flag[0] == '1') {
      std::printf("%s", metrics.RenderTable().c_str());
    }
  }

  sim::Future<rpc::RpcResult> Start(std::uint32_t id,
                                    const rpc::CallOptions& options) {
    return client->Call(server_ep->address(), object, kPing.id,
                        serde::EncodeToBytes(PingRequest{id}), options);
  }

  rpc::RpcResult CallSync(std::uint32_t id, const rpc::CallOptions& options) {
    auto future = Start(id, options);
    sched.RunUntil([&] { return future.ready(); });
    return future.take();
  }

  void Partition(bool on) { net.SetPartitioned(node_client, node_server, on); }

  sim::Scheduler sched;
  sim::Network net;
  obs::MetricsRegistry metrics;
  NodeId node_client, node_server;
  std::unique_ptr<net::NodeStack> stack_client, stack_server;
  std::unique_ptr<rpc::RpcClient> client;
  net::Endpoint* server_ep = nullptr;
  std::unique_ptr<rpc::RpcServer> server;
  obs::MetricScope metric_scope{metrics};  // after the client and server
  ObjectId object;
};

rpc::RpcClient::BreakerParams NoBreaker() {
  rpc::RpcClient::BreakerParams off;
  off.open_after = 1 << 30;  // never trips
  return off;
}

// --- A: goodput under loss, bounded by a deadline ---

constexpr int kLossCalls = 300;

void RunLossTable() {
  Table table("A: goodput within a 100ms deadline vs loss (300 calls)",
              {"loss", "goodput", "mean ok", "p99 ok", "retrans/call",
               "deadline exp"});
  for (const double loss : {0.0, 0.10, 0.25, 0.40}) {
    sim::LinkParams link;
    link.loss = loss;
    FaultWorld w(/*seed=*/17, NoBreaker(), link);
    rpc::CallOptions options;
    options.retry_interval = Milliseconds(5);
    options.max_retries = 1000;
    options.deadline = Milliseconds(100);

    std::vector<SimDuration> ok_latency;
    int ok = 0;
    for (int i = 0; i < kLossCalls; ++i) {
      const SimTime start = w.sched.now();
      const rpc::RpcResult r = w.CallSync(static_cast<std::uint32_t>(i),
                                          options);
      if (r.ok()) {
        ++ok;
        ok_latency.push_back(w.sched.now() - start);
      }
    }
    std::sort(ok_latency.begin(), ok_latency.end());
    SimDuration sum = 0;
    for (const auto l : ok_latency) sum += l;
    table.AddRow(
        {FmtDouble(loss * 100, 0) + "%",
         FmtDouble(100.0 * ok / kLossCalls, 1) + "%",
         FmtMean(sum, ok_latency.size()),
         ok_latency.empty() ? "-"
                            : FmtDur(ok_latency[ok_latency.size() * 99 / 100]),
         FmtDouble(static_cast<double>(w.client->stats().retransmissions) /
                       kLossCalls,
                   2),
         FmtInt(w.client->stats().deadline_expirations)});
  }
  table.Print();
}

// --- B: outage and recovery, breaker on vs off ---

struct OutageSample {
  double goodput = 0;             // over the whole run
  std::uint64_t outage_retrans = 0;
  std::uint64_t fast_fails = 0;
  std::uint64_t breaker_opens = 0;
  SimDuration recovery = 0;       // heal -> first completed success
};

enum class OutageConfig { kBare, kBudget, kBudgetBreaker };

OutageSample RunOutage(SimDuration outage, OutageConfig config) {
  FaultWorld w(/*seed=*/17, config == OutageConfig::kBudgetBreaker
                                ? rpc::RpcClient::BreakerParams{}
                                : NoBreaker());
  if (config == OutageConfig::kBare) {
    w.client->set_testing_retry_governors(false);
  }
  rpc::CallOptions options;
  options.retry_interval = Milliseconds(5);
  options.max_retries = 100;
  options.deadline = Milliseconds(50);
  const SimDuration pace = Milliseconds(10);

  std::vector<sim::Future<rpc::RpcResult>> futures;
  std::uint32_t next_id = 0;
  auto paced_phase = [&](SimDuration length) {
    for (SimDuration t = 0; t < length; t += pace) {
      futures.push_back(w.Start(next_id++, options));
      w.sched.RunFor(pace);
    }
  };

  paced_phase(Milliseconds(500));  // healthy warm-up
  w.Partition(true);
  const std::uint64_t retrans_before = w.client->stats().retransmissions;
  paced_phase(outage);             // the client keeps calling into the hole
  w.Partition(false);
  const std::uint64_t retrans_after = w.client->stats().retransmissions;
  const SimTime healed = w.sched.now();

  // After the heal, keep the same cadence until a call completes: the
  // recovery time is what a user at the call site experiences.
  OutageSample s;
  for (int i = 0; i < 1000; ++i) {
    const rpc::RpcResult r = w.CallSync(next_id++, options);
    if (r.ok()) {
      s.recovery = w.sched.now() - healed;
      break;
    }
    w.sched.RunFor(pace);
  }
  paced_phase(Milliseconds(500));  // steady state after recovery
  w.sched.Run();

  std::uint64_t ok = w.client->stats().calls_ok;
  const std::uint64_t total = w.client->stats().calls_started;
  s.goodput = 100.0 * static_cast<double>(ok) / static_cast<double>(total);
  s.outage_retrans = retrans_after - retrans_before;
  s.fast_fails = w.client->stats().breaker_fast_fails;
  s.breaker_opens = w.client->stats().breaker_opens;
  return s;
}

void RunOutageTable() {
  Table table("B: outage length vs retry cost and recovery (10ms call pace)",
              {"outage", "config", "goodput", "retrans in outage",
               "fast fails", "opens", "heal->first ok"});
  for (const SimDuration outage :
       {Milliseconds(500), Milliseconds(1000), Milliseconds(2000)}) {
    for (const OutageConfig config :
         {OutageConfig::kBare, OutageConfig::kBudget,
          OutageConfig::kBudgetBreaker}) {
      const OutageSample s = RunOutage(outage, config);
      const char* label = config == OutageConfig::kBare ? "bare"
                          : config == OutageConfig::kBudget
                              ? "budget"
                              : "budget+breaker";
      table.AddRow({FmtDur(outage), label, FmtDouble(s.goodput, 1) + "%",
                    FmtInt(s.outage_retrans), FmtInt(s.fast_fails),
                    FmtInt(s.breaker_opens), FmtDur(s.recovery)});
    }
  }
  table.Print();
}

}  // namespace

int main() {
  std::printf(
      "F6: fault recovery on the hardened invocation path\n"
      "(deadline=100ms/50ms, retry=5ms with decorrelated jitter)\n");
  RunLossTable();
  RunOutageTable();
  std::printf(
      "\nShape check: (A) goodput stays high under heavy loss while every\n"
      "call resolves within its deadline. (B) bare retransmissions grow\n"
      "linearly with outage length; the retry token bucket caps the\n"
      "total at its 64-token depth no matter how long the hole (refills\n"
      "need successes, and there are none); the breaker on top sheds\n"
      "calls in zero time instead of burning a deadline each. The price\n"
      "is the half-open probe cadence: the first success after the heal\n"
      "lands within one (grown) cooldown rather than immediately.\n");
  return 0;
}

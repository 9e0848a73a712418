// F2 — The cost of consistency: caching under write sharing.
//
// N clients share one KV service; each does a 90%-read Zipf workload.
// Sweeping N shows the two sides of the caching coin: reads scale (each
// client's cache absorbs its own re-reads) while every write triggers an
// invalidation fan-out of N-1 messages. Three configurations:
//   stub        — no caching, baseline
//   write-thru  — caching proxy (protocol 2)
//   write-back  — caching + buffered writes (protocol 3)

#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "services/kv.h"

using namespace proxy;            // NOLINT
using namespace proxy::bench;     // NOLINT
using namespace proxy::services;  // NOLINT

namespace {

constexpr int kOpsPerClient = 400;
constexpr int kKeys = 48;
constexpr double kReadRatio = 0.9;

sim::Co<void> ClientWorkload(std::shared_ptr<IKeyValue> kv, std::uint64_t seed,
                             int* done) {
  Rng rng(seed);
  ZipfGenerator zipf(kKeys, 0.9, seed * 7 + 1);
  for (int i = 0; i < kOpsPerClient; ++i) {
    const std::string key = "key" + std::to_string(zipf.Next());
    if (rng.UniformDouble() < kReadRatio) {
      (void)co_await kv->Get(key);
    } else {
      std::string value = "v";
      value += std::to_string(i);
      (void)co_await kv->Put(key, std::move(value));
    }
  }
  ++*done;
}

struct Sample {
  SimDuration elapsed = 0;     // makespan of all clients
  std::uint64_t messages = 0;
  std::uint64_t invalidations = 0;
};

Sample Run(std::uint32_t protocol, int sharers) {
  World w;
  auto exported = ExportKvService(*w.server_ctx, protocol);
  if (!exported.ok()) std::abort();
  w.Publish("kv", exported->binding);

  // Each sharer is its own context on its own node.
  std::vector<core::Context*> contexts;
  for (int i = 0; i < sharers; ++i) {
    const NodeId node = w.rt->AddNode("sharer-" + std::to_string(i));
    std::string name = "c";
    name += std::to_string(i);
    contexts.push_back(&w.rt->CreateContext(node, name));
  }

  std::vector<std::shared_ptr<IKeyValue>> proxies(sharers);
  auto bind_all = [&]() -> sim::Co<void> {
    for (int i = 0; i < sharers; ++i) {
      core::AcquireOptions opts;
      opts.allow_direct = false;
      Result<std::shared_ptr<IKeyValue>> b =
          co_await core::Acquire<IKeyValue>(*contexts[i], "kv", opts);
      if (b.ok()) proxies[i] = *b;
    }
  };
  w.rt->Run(bind_all());

  const auto msgs_before = w.rt->network().stats().messages_sent;
  const SimTime start = w.rt->scheduler().now();
  int done = 0;
  for (int i = 0; i < sharers; ++i) {
    (void)sim::Spawn(w.rt->scheduler(),
                     ClientWorkload(proxies[i], 1000 + i, &done));
  }
  w.rt->scheduler().Run();
  if (done != sharers) std::abort();

  Sample s;
  s.elapsed = w.rt->scheduler().now() - start;
  s.messages = w.rt->network().stats().messages_sent - msgs_before;
  s.invalidations = exported->impl->invalidations_sent();
  return s;
}

}  // namespace

int main() {
  std::printf(
      "F2: consistency cost under sharing — %d ops/client, %.0f%% reads,\n"
      "Zipf(0.9) over %d keys; per-op latency = makespan / total ops\n",
      kOpsPerClient, kReadRatio * 100, kKeys);

  Table table("per-op latency and traffic vs number of sharers",
              {"sharers", "stub", "write-thru", "write-back",
               "w-t msgs", "w-t invals"});

  for (const int n : {1, 2, 4, 8, 16}) {
    const Sample stub = Run(1, n);
    const Sample wt = Run(2, n);
    const Sample wb = Run(3, n);
    const auto total_ops = static_cast<std::uint64_t>(n) * kOpsPerClient;
    table.AddRow({FmtInt(static_cast<std::uint64_t>(n)),
                  FmtMean(stub.elapsed, total_ops),
                  FmtMean(wt.elapsed, total_ops),
                  FmtMean(wb.elapsed, total_ops), FmtInt(wt.messages),
                  FmtInt(wt.invalidations)});
  }
  table.Print();

  std::printf(
      "\nShape check: caching beats the stub at every N; invalidation\n"
      "traffic grows ~N^2 (N writers x N-1 subscribers), eroding but not\n"
      "erasing the win; write-back shaves the write round trips on top.\n");
  return 0;
}

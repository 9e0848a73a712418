// F4 — Name resolution: cold walks vs the caching name proxy.
//
// The name space is federated: resolving a depth-d path hops across d
// name servers, each hop a round trip. A caching name client reduces a
// repeat resolution to zero messages. Sweep the chain depth.

#include <cstdio>

#include "bench_util.h"
#include "naming/client.h"
#include "naming/server.h"

using namespace proxy;         // NOLINT
using namespace proxy::bench;  // NOLINT

namespace {

constexpr int kRepeatResolves = 20;

struct Sample {
  SimDuration first = 0;        // cold resolve
  SimDuration repeat_mean = 0;  // mean of the re-resolves
  std::uint64_t messages = 0;   // total messages for all resolves
};

Sample Run(int depth, bool cached) {
  World w;

  // Build a referral chain: root -> dir0 -> dir1 -> ... -> service.
  // Each directory level is a name server in its own context on its own
  // node (worst case: every hop crosses the network).
  std::vector<std::unique_ptr<naming::NameServer>> servers;
  naming::NameServer* cursor = w.rt->name_server();
  for (int level = 0; level < depth; ++level) {
    const NodeId node = w.rt->AddNode("ns-node-" + std::to_string(level));
    core::Context& ctx = w.rt->CreateContext(node, "ns-" + std::to_string(level));
    servers.push_back(std::make_unique<naming::NameServer>(ctx.server()));

    naming::NameRecord referral;
    referral.kind = naming::RecordKind::kDirectory;
    referral.directory_server = ctx.server_address();
    std::string dir = "d";
    dir += std::to_string(level);
    if (!cursor->RegisterDirect(dir, referral).ok()) {
      std::abort();
    }
    cursor = servers.back().get();
  }
  core::ServiceBinding target;
  target.server = net::Address{w.server_node, PortId(77)};
  target.object = ObjectId{1, 2};
  target.interface = InterfaceIdOf("bench.Target");
  naming::NameRecord leaf;
  leaf.kind = naming::RecordKind::kService;
  leaf.binding = target;
  if (!cursor->RegisterDirect("svc", leaf).ok()) std::abort();

  std::string path;
  for (int level = 0; level < depth; ++level) {
    path += "d";
    path += std::to_string(level);
    path += "/";
  }
  path += "svc";

  naming::CachingNameClient caching(w.client_ctx->client(),
                                    w.rt->name_server_address());

  Sample s;
  const auto msgs_before = w.rt->network().stats().messages_sent;
  auto resolve_once = [&](SimDuration* out) {
    auto body = [&]() -> sim::Co<void> {
      const SimTime t0 = w.rt->scheduler().now();
      // Two statements, not `cached ? co_await ... : co_await ...`: GCC 12
      // miscompiles a co_await inside a conditional (DESIGN.md §7).
      Result<core::ServiceBinding> r = InternalError("unresolved");
      if (cached) {
        Result<core::ServiceBinding> resolved =
            co_await caching.ResolvePath(path);
        r = std::move(resolved);
      } else {
        Result<core::ServiceBinding> resolved =
            co_await w.client_ctx->names().ResolvePath(path);
        r = std::move(resolved);
      }
      if (!r.ok() || !(*r == target)) std::abort();
      *out += w.rt->scheduler().now() - t0;
    };
    w.rt->Run(body());
  };

  resolve_once(&s.first);
  SimDuration repeats = 0;
  for (int i = 0; i < kRepeatResolves; ++i) resolve_once(&repeats);
  s.repeat_mean = repeats / kRepeatResolves;
  s.messages = w.rt->network().stats().messages_sent - msgs_before;
  return s;
}

}  // namespace

int main() {
  std::printf(
      "F4: federated name resolution — cold walk vs caching name proxy\n"
      "(1 cold + %d repeat resolutions; depth = referral hops)\n",
      kRepeatResolves);

  Table table("resolution latency vs referral-chain depth",
              {"depth", "cold resolve", "repeat (no cache)",
               "repeat (cached)", "msgs no-cache", "msgs cached"});

  for (const int depth : {0, 1, 2, 4, 8}) {
    const Sample plain = Run(depth, /*cached=*/false);
    const Sample cached = Run(depth, /*cached=*/true);
    table.AddRow({FmtInt(static_cast<std::uint64_t>(depth)),
                  FmtDur(plain.first), FmtDur(plain.repeat_mean),
                  FmtDur(cached.repeat_mean), FmtInt(plain.messages),
                  FmtInt(cached.messages)});
  }
  table.Print();

  std::printf(
      "\nShape check: cold cost grows linearly with depth (one round trip\n"
      "per referral + the leaf); uncached repeats pay the full walk every\n"
      "time; the caching proxy's repeats are 0ns and add no messages.\n");
  return 0;
}

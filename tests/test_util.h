// Shared fixtures for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/export.h"
#include "core/factory.h"
#include "core/runtime.h"
#include "net/endpoint.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/stub.h"
#include "serde/traits.h"
#include "services/register_all.h"
#include "sim/network.h"
#include "sim/task.h"

namespace proxy::testing {

/// A ready-to-use two-node world: name service on the server node, one
/// server context and one client context. Most service tests start here.
class TestWorld {
 public:
  explicit TestWorld(std::uint64_t seed = 42,
                     sim::LinkParams link = sim::LinkParams{}) {
    services::RegisterAllServices();
    core::Runtime::Params params;
    params.seed = seed;
    params.default_link = link;
    rt = std::make_unique<core::Runtime>(params);
    server_node = rt->AddNode("server-node");
    client_node = rt->AddNode("client-node");
    rt->StartNameService(server_node);
    server_ctx = &rt->CreateContext(server_node, "server");
    client_ctx = &rt->CreateContext(client_node, "client");
  }

  /// Publishes a binding under `name` (driving the scheduler).
  void Publish(const std::string& name, const core::ServiceBinding& binding) {
    auto body = [this, &name, &binding]() -> sim::Co<void> {
      Result<rpc::Void> ok =
          co_await server_ctx->names().RegisterService(name, binding);
      EXPECT_TRUE(ok.ok()) << ok.status().ToString();
    };
    Run(body);
  }

  /// Runs a *named* coroutine lambda to completion. The lambda must be an
  /// lvalue (see DESIGN.md toolchain notes on lambda coroutines).
  template <typename L>
  void Run(L& lambda) {
    rt->Run(lambda());
  }

  std::unique_ptr<core::Runtime> rt;
  NodeId server_node;
  NodeId client_node;
  core::Context* server_ctx = nullptr;
  core::Context* client_ctx = nullptr;
};

/// Binds interface `I` in `ctx` through the name service, forcing the
/// proxy path (the pattern every multi-node service test repeats).
template <typename I>
std::shared_ptr<I> AcquireByName(TestWorld& w, core::Context& ctx,
                              const std::string& name) {
  std::shared_ptr<I> out;
  auto body = [&]() -> sim::Co<void> {
    core::AcquireOptions opts;
    opts.allow_direct = false;
    Result<std::shared_ptr<I>> bound = co_await core::Acquire<I>(ctx, name, opts);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    if (bound.ok()) out = *bound;
  };
  w.Run(body);
  return out;
}

struct PingRequest {
  std::uint32_t id = 0;
  PROXY_SERDE_FIELDS(id)
};
struct PingResponse {
  std::uint32_t id = 0;
  PROXY_SERDE_FIELDS(id)
};
inline constexpr rpc::Method<PingRequest, PingResponse> kPing{1};

/// A minimal client/server pair on two raw nodes (no Runtime, no naming),
/// with controllable breaker tuning. Not a TEST_F fixture so one test can
/// build several worlds (e.g. a loss grid).
struct RpcWorld {
  explicit RpcWorld(std::uint64_t seed,
                    rpc::RpcClient::BreakerParams breaker =
                        rpc::RpcClient::BreakerParams{})
      : net(sched, seed) {
    node_client = net.AddNode("client");
    node_server = net.AddNode("server");
    stack_client = std::make_unique<net::NodeStack>(net, node_client);
    stack_server = std::make_unique<net::NodeStack>(net, node_server);
    client = std::make_unique<rpc::RpcClient>(*stack_client->OpenEphemeral(),
                                              seed ^ 0xFA17u, breaker);
    server_ep = stack_server->OpenEndpoint(PortId(40));
    server = std::make_unique<rpc::RpcServer>(*server_ep);
    object = ObjectId{1, 1};
    auto dispatch = std::make_shared<rpc::Dispatch>();
    rpc::RegisterTyped(*dispatch, kPing,
                       [](PingRequest req) -> sim::Co<Result<PingResponse>> {
                         co_return PingResponse{req.id};
                       });
    EXPECT_TRUE(server->ExportObject(object, dispatch).ok());
  }

  rpc::RpcResult CallSync(std::uint32_t id, const rpc::CallOptions& options) {
    auto future = client->Call(server_ep->address(), object, kPing.id,
                               serde::EncodeToBytes(PingRequest{id}), options);
    sched.RunUntil([&] { return future.ready(); });
    return future.take();
  }

  void Partition(bool on) { net.SetPartitioned(node_client, node_server, on); }

  sim::Scheduler sched;
  sim::Network net;
  NodeId node_client, node_server;
  std::unique_ptr<net::NodeStack> stack_client, stack_server;
  std::unique_ptr<rpc::RpcClient> client;
  net::Endpoint* server_ep = nullptr;
  std::unique_ptr<rpc::RpcServer> server;
  ObjectId object;
};

// gtest's ASSERT_* macros expand to `return;`, which is ill-formed inside
// a coroutine. CO_ASSERT_* are the coroutine-safe equivalents: they record
// the failure and co_return.
#define CO_ASSERT_TRUE(cond)                    \
  do {                                          \
    if (!(cond)) {                              \
      ADD_FAILURE() << "expected true: " #cond; \
      co_return;                                \
    }                                           \
  } while (false)

#define CO_ASSERT_OK(expr)                                             \
  do {                                                                 \
    const auto& _r = (expr);                                           \
    if (!_r.ok()) {                                                    \
      ADD_FAILURE() << #expr << " failed: "                            \
                    << ::proxy::testing::StatusOf(_r).ToString();      \
      co_return;                                                       \
    }                                                                  \
  } while (false)

inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
Status StatusOf(const Result<T>& r) {
  return r.status();
}

/// Expects a Status or Result<T> to be OK, printing the status otherwise.
#define EXPECT_OK(expr)                                               \
  do {                                                                \
    const auto& _r = (expr);                                          \
    EXPECT_TRUE(_r.ok()) << ::proxy::testing::StatusOf(_r).ToString(); \
  } while (false)

#define ASSERT_OK(expr)                                               \
  do {                                                                \
    const auto& _r = (expr);                                          \
    ASSERT_TRUE(_r.ok()) << ::proxy::testing::StatusOf(_r).ToString(); \
  } while (false)

}  // namespace proxy::testing

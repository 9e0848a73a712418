// Property-based sweeps (parameterized gtest).
//
// 1. KV linearizability-against-model: a random single-client operation
//    stream produces exactly the same observable results through every
//    proxy protocol as an in-memory map model.
// 2. RPC at-most-once property: executed calls == acknowledged calls
//    across loss rates.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "core/factory.h"
#include "services/counter.h"
#include "services/kv.h"
#include "test_util.h"

namespace proxy {
namespace {

using core::Acquire;
using core::AcquireOptions;
using proxy::testing::TestWorld;
using namespace proxy::services;  // NOLINT

// --- property 1: KV proxies behave like a map -------------------------

class KvModelProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {};

sim::Co<void> RandomOpsAgainstModel(std::shared_ptr<IKeyValue> kv,
                                    std::uint64_t seed, int ops,
                                    sim::Scheduler& sched) {
  Rng rng(seed);
  std::map<std::string, std::string> model;
  for (int i = 0; i < ops; ++i) {
    const std::string key = "k" + std::to_string(rng.UniformU64(12));
    const double dice = rng.UniformDouble();
    if (dice < 0.5) {
      Result<std::optional<std::string>> got = co_await kv->Get(key);
      CO_ASSERT_OK(got);
      const auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_FALSE(got->has_value()) << "op " << i << " key " << key;
      } else {
        CO_ASSERT_TRUE(got->has_value());
        EXPECT_EQ(got->value(), it->second) << "op " << i << " key " << key;
      }
    } else if (dice < 0.85) {
      const std::string value = "v" + std::to_string(rng.NextU64() % 1000);
      CO_ASSERT_OK(co_await kv->Put(key, value));
      model[key] = value;
    } else {
      Result<bool> existed = co_await kv->Del(key);
      CO_ASSERT_OK(existed);
      EXPECT_EQ(*existed, model.erase(key) > 0) << "op " << i;
    }
    if (rng.Chance(0.1)) {
      co_await sim::SleepFor(sched, Milliseconds(rng.UniformU64(10)));
    }
  }
  // Final: the full model must be visible through the proxy.
  for (const auto& [key, value] : model) {
    Result<std::optional<std::string>> got = co_await kv->Get(key);
    CO_ASSERT_OK(got);
    CO_ASSERT_TRUE(got->has_value());
    EXPECT_EQ(got->value(), value);
  }
}

TEST_P(KvModelProperty, RandomOpsMatchInMemoryModel) {
  const auto [protocol, seed] = GetParam();
  TestWorld w(seed);
  auto exported = ExportKvService(*w.server_ctx, protocol);
  ASSERT_OK(exported);
  w.Publish("kv", exported->binding);

  std::shared_ptr<IKeyValue> kv;
  auto bind = [&]() -> sim::Co<void> {
    Result<std::shared_ptr<IKeyValue>> bound =
        co_await Acquire<IKeyValue>(*w.client_ctx, "kv");
    CO_ASSERT_OK(bound);
    kv = *bound;
  };
  w.Run(bind);
  ASSERT_NE(kv, nullptr);

  w.rt->Run(RandomOpsAgainstModel(kv, seed * 31 + protocol, 200,
                                  w.rt->scheduler()));
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsBySeeds, KvModelProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(1u, 7u, 42u, 1234u)),
    [](const auto& info) {
      return "proto" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// --- property 2: RPC at-most-once across loss rates --------------------

class AtMostOnceProperty : public ::testing::TestWithParam<double> {};

TEST_P(AtMostOnceProperty, ExecutionsEqualSuccessfulCalls) {
  const double loss = GetParam();
  sim::LinkParams link;
  link.loss = loss;
  TestWorld w(/*seed=*/5, link);
  auto exported = ExportCounterService(*w.server_ctx, 1, 0);
  ASSERT_OK(exported);
  w.Publish("ctr", exported->binding);

  int acknowledged = 0;
  auto body = [&]() -> sim::Co<void> {
    AcquireOptions opts;
    opts.allow_direct = false;
    Result<std::shared_ptr<ICounter>> ctr =
        co_await Acquire<ICounter>(*w.client_ctx, "ctr", opts);
    CO_ASSERT_OK(ctr);
    auto* stub = dynamic_cast<CounterStub*>(ctr->get());
    rpc::CallOptions patient;
    patient.retry_interval = Milliseconds(10);
    patient.max_retries = 100;
    stub->set_call_options(patient);

    for (int i = 0; i < 30; ++i) {
      Result<std::int64_t> v = co_await (*ctr)->Increment(1);
      if (v.ok()) ++acknowledged;
    }
    Result<std::int64_t> total = co_await (*ctr)->Read();
    CO_ASSERT_OK(total);
    // Every acknowledged increment executed exactly once. (With enough
    // retries all 30 are acknowledged; the invariant is equality.)
    EXPECT_EQ(*total, acknowledged);
  };
  w.Run(body);
}

INSTANTIATE_TEST_SUITE_P(LossSweep, AtMostOnceProperty,
                         ::testing::Values(0.0, 0.05, 0.15, 0.3),
                         [](const auto& info) {
                           return "loss" + std::to_string(static_cast<int>(
                                               info.param * 100));
                         });

}  // namespace
}  // namespace proxy

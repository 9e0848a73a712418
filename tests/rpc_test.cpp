// Unit tests for the RPC runtime: dispatch, timeouts, retries, and the
// at-most-once guarantee under loss.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "net/endpoint.h"
#include "rpc/client.h"
#include "rpc/frame.h"
#include "rpc/server.h"
#include "rpc/stub.h"
#include "serde/traits.h"
#include "serde/writer.h"
#include "sim/network.h"
#include "sim/task.h"

namespace proxy::rpc {
namespace {

struct EchoRequest {
  std::string text;
  std::uint32_t repeat = 1;
  PROXY_SERDE_FIELDS(text, repeat)
};
struct EchoResponse {
  std::string text;
  PROXY_SERDE_FIELDS(text)
};

struct RpcFixture : public ::testing::Test {
  RpcFixture() : net(sched, 11) {
    node_a = net.AddNode("client-node");
    node_b = net.AddNode("server-node");
    stack_a = std::make_unique<net::NodeStack>(net, node_a);
    stack_b = std::make_unique<net::NodeStack>(net, node_b);
    client = std::make_unique<RpcClient>(*stack_a->OpenEphemeral(), 0xC11E);
    server_ep = stack_b->OpenEndpoint(PortId(40));
    server = std::make_unique<RpcServer>(*server_ep);

    object = ObjectId{1, 2};
    auto dispatch = std::make_shared<Dispatch>();
    RegisterTyped<EchoRequest, EchoResponse>(
        *dispatch, 1,
        [this](EchoRequest req,
               const CallContext&) -> sim::Co<Result<EchoResponse>> {
          ++executions;
          std::string out;
          for (std::uint32_t i = 0; i < req.repeat; ++i) out += req.text;
          co_return EchoResponse{out};
        });
    // A slow method exercising coroutine handlers.
    RegisterTyped<EchoRequest, EchoResponse>(
        *dispatch, 2,
        [this](EchoRequest req,
               const CallContext&) -> sim::Co<Result<EchoResponse>> {
          co_await sim::SleepFor(sched, Milliseconds(30));
          co_return EchoResponse{req.text};
        });
    // A method that fails.
    RegisterTyped<EchoRequest, EchoResponse>(
        *dispatch, 3,
        [](EchoRequest, const CallContext&) -> sim::Co<Result<EchoResponse>> {
          co_return FailedPreconditionError("nope");
        });
    EXPECT_TRUE(server->ExportObject(object, dispatch).ok());
  }

  /// Drives the scheduler until the call completes; returns its result.
  RpcResult CallSync(std::uint32_t method, const EchoRequest& req,
                     const CallOptions& options = {}) {
    auto future = client->Call(server_ep->address(), object, method,
                               serde::EncodeToBytes(req), options);
    sched.RunUntil([&] { return future.ready(); });
    return future.take();
  }

  sim::Scheduler sched;
  sim::Network net;
  NodeId node_a, node_b;
  std::unique_ptr<net::NodeStack> stack_a, stack_b;
  std::unique_ptr<RpcClient> client;
  net::Endpoint* server_ep = nullptr;
  std::unique_ptr<RpcServer> server;
  ObjectId object;
  int executions = 0;
};

TEST_F(RpcFixture, BasicCallRoundTrips) {
  const RpcResult r = CallSync(1, EchoRequest{"hi", 3});
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  const auto resp = serde::DecodeFromBytes<EchoResponse>(View(r.payload));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->text, "hihihi");
  EXPECT_EQ(executions, 1);
  EXPECT_EQ(client->stats().calls_ok, 1u);
}

TEST_F(RpcFixture, UnknownObjectIsNotFound) {
  auto future = client->Call(server_ep->address(), ObjectId{9, 9}, 1,
                             serde::EncodeToBytes(EchoRequest{"x", 1}));
  sched.RunUntil([&] { return future.ready(); });
  EXPECT_EQ(future.take().status.code(), StatusCode::kNotFound);
  EXPECT_EQ(server->stats().unknown_object, 1u);
}

TEST_F(RpcFixture, UnknownMethodIsNotFound) {
  const RpcResult r = CallSync(77, EchoRequest{"x", 1});
  EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(server->stats().unknown_method, 1u);
}

TEST_F(RpcFixture, ServerErrorPropagates) {
  const RpcResult r = CallSync(3, EchoRequest{"x", 1});
  EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(r.status.message(), "nope");
}

TEST_F(RpcFixture, MalformedArgsRejectedByTypedSkeleton) {
  auto future = client->Call(server_ep->address(), object, 1,
                             ToBytes("\xff\xff garbage"));
  sched.RunUntil([&] { return future.ready(); });
  EXPECT_EQ(future.take().status.code(), StatusCode::kCorrupt);
  EXPECT_EQ(executions, 0);
}

TEST_F(RpcFixture, BorrowedArgsViewSurvivesHandlerSuspension) {
  // The server hands handlers a BytesView aliasing the request's arrival
  // buffer and keeps that buffer alive as a request-scoped arena. The
  // view must still read the same bytes after the handler suspends —
  // that lifetime promise is what makes the zero-copy dispatch safe.
  auto dispatch = std::make_shared<Dispatch>();
  const Bytes sent = ToBytes("arena-resident-args-0123456789");
  dispatch->Register(
      5, [this, &sent](BytesView args,
                       const CallContext&) -> sim::Co<Result<Bytes>> {
        const Bytes before(args.begin(), args.end());
        EXPECT_EQ(before, sent);
        // Suspend long enough for other deliveries and timers to run —
        // if the arrival buffer died with the dispatch turn, the view
        // would now dangle (ASan catches the read, the EXPECT the data).
        co_await sim::SleepFor(sched, Milliseconds(25));
        const Bytes after(args.begin(), args.end());
        EXPECT_EQ(after, sent);
        co_return Bytes(args.begin(), args.end());
      });
  const ObjectId raw_object{3, 4};
  ASSERT_TRUE(server->ExportObject(raw_object, dispatch).ok());
  auto future = client->Call(server_ep->address(), raw_object, 5, sent);
  // Interleave another call so the scheduler has unrelated work (and
  // unrelated arrival buffers) while the handler is suspended.
  auto noise = client->Call(server_ep->address(), object, 1,
                            serde::EncodeToBytes(EchoRequest{"noise", 2}));
  sched.RunUntil([&] { return future.ready() && noise.ready(); });
  const RpcResult r = future.take();
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.payload, sent);
  EXPECT_TRUE(noise.take().ok());
}

TEST_F(RpcFixture, SlowHandlerDoesNotBlockOthers) {
  auto slow = client->Call(server_ep->address(), object, 2,
                           serde::EncodeToBytes(EchoRequest{"slow", 1}));
  auto fast = client->Call(server_ep->address(), object, 1,
                           serde::EncodeToBytes(EchoRequest{"fast", 1}));
  sched.RunUntil([&] { return fast.ready(); });
  EXPECT_FALSE(slow.ready());  // still sleeping server-side
  sched.RunUntil([&] { return slow.ready(); });
  EXPECT_TRUE(slow.take().ok());
}

TEST_F(RpcFixture, TimeoutAfterRetryBudget) {
  net.SetPartitioned(node_a, node_b, true);
  CallOptions options;
  options.retry_interval = Milliseconds(10);
  options.max_retries = 3;
  const RpcResult r = CallSync(1, EchoRequest{"x", 1}, options);
  EXPECT_EQ(r.status.code(), StatusCode::kTimeout);
  EXPECT_EQ(client->stats().retransmissions, 3u);
  EXPECT_EQ(client->stats().timeouts, 1u);
}

TEST_F(RpcFixture, RetransmissionSurvivesRequestLoss) {
  sim::LinkParams lossy;
  lossy.loss = 0.5;
  net.SetLink(node_a, node_b, lossy);
  CallOptions options;
  options.retry_interval = Milliseconds(5);
  options.max_retries = 30;
  int ok_calls = 0;
  for (int i = 0; i < 20; ++i) {
    const RpcResult r = CallSync(1, EchoRequest{"r", 1}, options);
    if (r.ok()) ++ok_calls;
  }
  EXPECT_EQ(ok_calls, 20);
}

TEST_F(RpcFixture, AtMostOnceUnderHeavyLoss) {
  sim::LinkParams lossy;
  lossy.loss = 0.4;
  net.SetLink(node_a, node_b, lossy);
  CallOptions options;
  options.retry_interval = Milliseconds(5);
  options.max_retries = 50;
  for (int i = 0; i < 25; ++i) {
    const RpcResult r = CallSync(1, EchoRequest{"once", 1}, options);
    ASSERT_TRUE(r.ok());
  }
  // Retransmissions happened, yet each call executed exactly once.
  EXPECT_GT(client->stats().retransmissions, 0u);
  EXPECT_EQ(executions, 25);
  EXPECT_GT(server->stats().duplicate_suppressed +
                server->stats().in_progress_dropped,
            0u);
}

TEST_F(RpcFixture, DuplicateOfInFlightCallNotReExecuted) {
  // Slow method + aggressive retry: duplicates arrive while the handler
  // still runs; they must be dropped, and the final reply answers all.
  CallOptions options;
  options.retry_interval = Milliseconds(5);  // handler takes 30ms
  options.max_retries = 20;
  const RpcResult r = CallSync(2, EchoRequest{"inflight", 1}, options);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(server->stats().in_progress_dropped, 0u);
  EXPECT_EQ(server->stats().executions, 1u);
}

TEST_F(RpcFixture, RevokedObjectAnswersPermissionDenied) {
  server->Revoke(object);
  const RpcResult r = CallSync(1, EchoRequest{"x", 1});
  EXPECT_EQ(r.status.code(), StatusCode::kPermissionDenied);
  EXPECT_TRUE(server->IsRevoked(object));
  EXPECT_EQ(executions, 0);
}

TEST_F(RpcFixture, ReExportAfterRevokeIsRefusedByRevocationCheck) {
  server->Revoke(object);
  // Revocation is permanent: even re-exporting does not resurrect.
  auto dispatch = std::make_shared<Dispatch>();
  EXPECT_TRUE(server->ExportObject(object, dispatch).ok());
  const RpcResult r = CallSync(1, EchoRequest{"x", 1});
  EXPECT_EQ(r.status.code(), StatusCode::kPermissionDenied);
}

TEST_F(RpcFixture, ForwardingAnswersObjectMoved) {
  ASSERT_TRUE(server->RemoveObject(object).ok());
  server->SetForwarding(object, ToBytes("new-binding-hint"));
  const RpcResult r = CallSync(1, EchoRequest{"x", 1});
  EXPECT_EQ(r.status.code(), StatusCode::kObjectMoved);
  EXPECT_EQ(ToString(View(r.payload)), "new-binding-hint");
  server->ClearForwarding(object);
  const RpcResult r2 = CallSync(1, EchoRequest{"x", 1});
  EXPECT_EQ(r2.status.code(), StatusCode::kNotFound);
}

TEST_F(RpcFixture, RemoveObjectMakesItNotFound) {
  EXPECT_TRUE(server->RemoveObject(object).ok());
  const RpcResult r = CallSync(1, EchoRequest{"x", 1});
  EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
  EXPECT_FALSE(server->RemoveObject(object).ok());
}

TEST_F(RpcFixture, ReplyCacheBoundedEviction) {
  RpcServer::Params params;
  params.reply_cache_per_client = 4;
  net::Endpoint* ep2 = stack_b->OpenEndpoint(PortId(41));
  RpcServer small_server(*ep2, params);
  ObjectId obj{5, 5};
  auto dispatch = std::make_shared<Dispatch>();
  int execs = 0;
  RegisterTyped<EchoRequest, EchoResponse>(
      *dispatch, 1,
      [&execs](EchoRequest req,
               const CallContext&) -> sim::Co<Result<EchoResponse>> {
        ++execs;
        co_return EchoResponse{req.text};
      });
  ASSERT_TRUE(small_server.ExportObject(obj, dispatch).ok());
  for (int i = 0; i < 10; ++i) {
    auto f = client->Call(ep2->address(), obj, 1,
                          serde::EncodeToBytes(EchoRequest{"c", 1}));
    sched.RunUntil([&] { return f.ready(); });
    ASSERT_TRUE(f.take().ok());
  }
  EXPECT_EQ(execs, 10);  // cache holds replies, not executions
}

TEST_F(RpcFixture, SpoofedReplyFromWrongAddressRejected) {
  // An attacker who guesses the nonce and sequence number must not be
  // able to answer a call from a third address. Start a slow call so the
  // forged reply races the genuine one.
  auto future = client->Call(server_ep->address(), object, 2,
                             serde::EncodeToBytes(EchoRequest{"real", 1}));
  sched.RunFor(Milliseconds(5));  // request delivered, handler sleeping
  ASSERT_FALSE(future.ready());

  ReplyFrame forged;
  forged.call = CallId{client->nonce(), 1};  // correctly guessed identity
  forged.code = StatusCode::kOk;
  forged.result = serde::EncodeToBytes(EchoResponse{"forged"});
  net::Endpoint* rogue = stack_b->OpenEphemeral();
  ASSERT_TRUE(
      rogue->Send(client->address(), EncodeReply(std::move(forged))).ok());

  sched.RunUntil([&] { return future.ready(); });
  const RpcResult r = future.take();
  ASSERT_TRUE(r.ok());
  const auto resp = serde::DecodeFromBytes<EchoResponse>(View(r.payload));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->text, "real");  // the forgery did not complete the call
  EXPECT_EQ(client->stats().spoofed_replies, 1u);
  EXPECT_GE(client->stats().stray_replies, 1u);
}

TEST_F(RpcFixture, DeadlineFailsFastUnderPartition) {
  net.SetPartitioned(node_a, node_b, true);
  CallOptions options;
  options.retry_interval = Milliseconds(10);
  options.max_retries = 1000;  // the deadline, not the budget, must end it
  options.deadline = Milliseconds(50);
  const SimTime start = sched.now();
  const RpcResult r = CallSync(1, EchoRequest{"x", 1}, options);
  EXPECT_EQ(r.status.code(), StatusCode::kTimeout);
  EXPECT_EQ(sched.now() - start, Milliseconds(50));
  EXPECT_GE(client->stats().deadline_expirations, 1u);
  // Retries stopped with the call: nothing left in the event queue but
  // in-flight datagrams, which drain without reviving the call.
  sched.Run();
  EXPECT_EQ(client->stats().calls_failed, 1u);
}

TEST_F(RpcFixture, ServerShedsExpiredRequests) {
  // A slow link delivers the request after its deadline already passed:
  // the server must answer TIMEOUT without dispatching the handler.
  sim::LinkParams slow;
  slow.latency = Milliseconds(100);
  net.SetLink(node_a, node_b, slow);
  CallOptions options;
  options.retry_interval = Milliseconds(200);  // no retransmission noise
  options.max_retries = 0;
  options.deadline = Milliseconds(20);
  const RpcResult r = CallSync(1, EchoRequest{"late", 1}, options);
  EXPECT_EQ(r.status.code(), StatusCode::kTimeout);
  sched.Run();  // let the late request reach the server
  EXPECT_EQ(server->stats().expired_dropped, 1u);
  EXPECT_EQ(executions, 0);
}

TEST_F(RpcFixture, StrayReplyIgnored) {
  // A reply with a foreign nonce must be counted and dropped.
  ReplyFrame reply;
  reply.call = CallId{0xDEAD, 1};
  reply.code = StatusCode::kOk;
  net::Endpoint* rogue = stack_b->OpenEphemeral();
  ASSERT_TRUE(
      rogue->Send(client->address(), EncodeReply(std::move(reply))).ok());
  sched.Run();
  EXPECT_EQ(client->stats().stray_replies, 1u);
}

TEST(FrameCodec, RequestReplyRoundTrip) {
  RequestFrame req;
  req.call = CallId{0xAB, 7};
  req.object = ObjectId{1, 2};
  req.method = 9;
  req.args = ToBytes("args");
  const Bytes encoded = EncodeRequest(std::move(req));
  ASSERT_TRUE(PeekFrameType(View(encoded)).ok());
  EXPECT_EQ(*PeekFrameType(View(encoded)), FrameType::kRequest);
  const auto decoded = DecodeRequestView(View(encoded));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->call.client_nonce, 0xABu);
  EXPECT_EQ(decoded->method, 9u);
  EXPECT_EQ(ToString(decoded->args), "args");

  ReplyFrame reply;
  reply.call = decoded->call;
  reply.code = StatusCode::kNotFound;
  reply.error_message = "gone";
  const Bytes encoded_reply = EncodeReply(std::move(reply));
  const auto decoded_reply = DecodeReply(View(encoded_reply));
  ASSERT_TRUE(decoded_reply.ok());
  EXPECT_EQ(decoded_reply->code, StatusCode::kNotFound);
  EXPECT_EQ(decoded_reply->error_message, "gone");
  // Cross-decoding fails cleanly.
  EXPECT_FALSE(DecodeRequestView(View(encoded_reply)).ok());
  EXPECT_FALSE(DecodeReply(View(encoded)).ok());
  EXPECT_FALSE(PeekFrameType(BytesView{}).ok());
}

}  // namespace
}  // namespace proxy::rpc

// Unit tests for the RPC runtime: dispatch, timeouts, retries, and the
// at-most-once guarantee under loss.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/hexdump.h"
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
/// Every fixture method echoes an EchoRequest; ids 1-5 differ in how.
using EchoMethod = Method<EchoRequest, EchoResponse>;

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
    RegisterTyped(
        *dispatch, EchoMethod{1},
        [this](EchoRequest req) -> sim::Co<Result<EchoResponse>> {
          ++executions;
          std::string out;
          for (std::uint32_t i = 0; i < req.repeat; ++i) out += req.text;
          co_return EchoResponse{out};
        });
    // A slow method exercising coroutine handlers.
    RegisterTyped(
        *dispatch, EchoMethod{2},
        [this](EchoRequest req) -> sim::Co<Result<EchoResponse>> {
          co_await sim::SleepFor(sched, Milliseconds(30));
          co_return EchoResponse{req.text};
        });
    // A method that fails.
    RegisterTyped(*dispatch, EchoMethod{3},
                  [](EchoRequest) -> sim::Co<Result<EchoResponse>> {
                    co_return FailedPreconditionError("nope");
                  });
    // Synchronous handlers: an echo, and one that fails.
    RegisterTyped(*dispatch, EchoMethod{4},
                  [this](EchoRequest req) -> Result<EchoResponse> {
                    ++sync_executions;
                    return EchoResponse{req.text};
                  });
    RegisterTyped(*dispatch, EchoMethod{5},
                  [this](EchoRequest) -> Result<EchoResponse> {
                    ++sync_executions;
                    return PermissionDeniedError("sync nope");
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
  int sync_executions = 0;
};

TEST_F(RpcFixture, BasicCallRoundTrips) {
  const RpcResult r = CallSync(1, EchoRequest{"hi", 3});
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  const auto resp = serde::DecodeFromBytes<EchoResponse>(r.payload.view());
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

TEST_F(RpcFixture, SyncHandlerRepliesAndPassesItsErrorThrough) {
  const RpcResult echoed = CallSync(4, EchoRequest{"hi", 1});
  ASSERT_TRUE(echoed.ok()) << echoed.status.ToString();
  const auto resp = serde::DecodeFromBytes<EchoResponse>(echoed.payload.view());
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->text, "hi");
  const RpcResult failed = CallSync(5, EchoRequest{"x", 1});
  EXPECT_EQ(failed.status.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(failed.status.message(), "sync nope");
  EXPECT_EQ(sync_executions, 2);
}

TEST_F(RpcFixture, MalformedArgsNeverReachSyncHandler) {
  const Bytes garbage = ToBytes("\xff\xff garbage");
  auto future = client->Call(server_ep->address(), object, 4, garbage);
  sched.RunUntil([&] { return future.ready(); });
  const Status decode = serde::DecodeFromBytes<EchoRequest>(garbage).status();
  const RpcResult r = future.take();
  EXPECT_EQ(r.status.code(), decode.code());
  EXPECT_EQ(r.status.message(), decode.message());
  EXPECT_EQ(sync_executions, 0);
}

TEST_F(RpcFixture, TypedReplyDecodesOrSurfacesCorrupt) {
  // EchoResponse{"hi"} is three bytes; rpc::Void reads one and leaves
  // two, so the same reply decodes as the one and not as the other. The
  // second descriptor deliberately declares method 1 with the wrong
  // reply type, as a stub that disagrees with its skeleton would.
  constexpr Method<EchoRequest, Void> kMismatched{1};
  std::optional<Result<EchoResponse>> echoed;
  std::optional<Result<Void>> wrong;
  auto body = [&]() -> sim::Co<void> {
    const EchoRequest req{"hi", 1};
    const CallOptions options;
    echoed = co_await TypedCall(*client, server_ep->address(), object,
                                EchoMethod{1}, req, options);
    wrong = co_await TypedCall(*client, server_ep->address(), object,
                               kMismatched, req, options);
  };
  auto done = sim::Spawn(sched, body());
  sched.RunUntil([&] { return done.ready(); });
  ASSERT_TRUE(echoed.has_value() && echoed->ok());
  EXPECT_EQ((*echoed)->text, "hi");
  ASSERT_TRUE(wrong.has_value());
  EXPECT_EQ(wrong->status().code(), StatusCode::kCorrupt);
  EXPECT_EQ(client->stats().calls_ok, 2u);  // both calls themselves succeeded
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
                       const obs::TraceContext&) -> sim::Co<Result<Bytes>> {
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
  EXPECT_EQ(r.payload.ToBytes(), sent);
  EXPECT_TRUE(noise.take().ok());
}

TEST_F(RpcFixture, ReplyWindowSurvivesFurtherDatagrams) {
  // The client-side twin of the test above: RpcResult::payload is the
  // reply's window of its own arrival buffer. It must read the same
  // bytes after the client has handled other datagrams — other replies'
  // buffers come and go, this one lives as long as the result.
  RpcResult first = CallSync(1, EchoRequest{"window", 2});
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  const BytesView window = first.payload.view();
  const Bytes expected = serde::EncodeToBytes(EchoResponse{"windowwindow"});
  EXPECT_EQ(Bytes(window.begin(), window.end()), expected);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(CallSync(1, EchoRequest{"noise", 3}).ok());
  }
  RpcResult moved = std::move(first);
  EXPECT_EQ(moved.payload.view().data(), window.data());
  EXPECT_EQ(Bytes(window.begin(), window.end()), expected);
  const auto resp = serde::DecodeFromBytes<EchoResponse>(moved.payload.view());
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->text, "windowwindow");
}

/// 64 KiB of distinct bytes, for the copy-budget tests.
Bytes BulkBytes() {
  Bytes b(64 * 1024);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  return b;
}

TEST_F(RpcFixture, BulkRoundTripCopyBudget) {
  // serde::WireCopyCounter tallies every bulk copy. With 64 KiB each way:
  //   request, client: args into the frame it keeps, frame into the
  //                    datagram (two copies);
  //   request, server: none (the handler reads args in the datagram);
  //   reply, server:   result into the frame it caches, frame into the
  //                    datagram (two copies);
  //   reply, client:   none (the caller reads the result in place).
  // Each datagram copy also carries the frame header and source port.
  const Bytes args = BulkBytes();
  const std::size_t n = args.size();
  constexpr std::size_t kHeaders = 128;
  std::uint64_t at_handler = 0;
  auto dispatch = std::make_shared<Dispatch>();
  dispatch->Register(
      6, [&at_handler](BytesView in,
                       const obs::TraceContext&) -> sim::Co<Result<Bytes>> {
        at_handler = serde::WireCopyCounter().value();
        co_return Bytes(in.rbegin(), in.rend());
      });
  const ObjectId bulk_object{6, 6};
  ASSERT_TRUE(server->ExportObject(bulk_object, dispatch).ok());

  // 64 KiB take ~52 ms each way on the default link: no retransmission
  // may muddy the tally.
  CallOptions patient;
  patient.retry_interval = Seconds(1);
  const std::uint64_t start = serde::WireCopyCounter().value();
  auto future = client->Call(server_ep->address(), bulk_object, 6, View(args),
                             patient);
  const std::uint64_t sent = serde::WireCopyCounter().value();
  sched.RunUntil([&] { return future.ready(); });
  const std::uint64_t done = serde::WireCopyCounter().value();
  const RpcResult r = future.take();
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.payload.ToBytes(), Bytes(args.rbegin(), args.rend()));

  EXPECT_GE(sent - start, 2 * n);
  EXPECT_LE(sent - start, 2 * n + kHeaders);
  EXPECT_EQ(at_handler, sent) << "the server copied the request";
  EXPECT_GE(done - at_handler, 2 * n);
  EXPECT_LE(done - at_handler, 2 * n + kHeaders);
}

TEST_F(RpcFixture, RetransmissionCopiesOneDatagram) {
  // A retransmission resends the frame the client kept: one copy, into
  // the datagram, and no re-encode.
  net.SetPartitioned(node_a, node_b, true);
  const Bytes args = BulkBytes();
  CallOptions options;
  options.retry_interval = Milliseconds(10);
  options.max_retries = 1;
  const std::uint64_t start = serde::WireCopyCounter().value();
  auto future =
      client->Call(server_ep->address(), object, 1, View(args), options);
  const std::uint64_t first = serde::WireCopyCounter().value() - start;
  sched.RunUntil([&] { return client->stats().retransmissions == 1; });
  const std::uint64_t resent =
      serde::WireCopyCounter().value() - start - first;
  EXPECT_EQ(resent, first - args.size())
      << "a retransmission costs exactly the first send's datagram copy";
  sched.RunUntil([&] { return future.ready(); });
  EXPECT_EQ(future.take().status.code(), StatusCode::kTimeout);
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
  EXPECT_EQ(ToString(r.payload.view()), "new-binding-hint");
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
  RegisterTyped(
      *dispatch, EchoMethod{1},
      [&execs](EchoRequest req) -> sim::Co<Result<EchoResponse>> {
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
  const Bytes forged_result = serde::EncodeToBytes(EchoResponse{"forged"});
  forged.result = View(forged_result);
  net::Endpoint* rogue = stack_b->OpenEphemeral();
  ASSERT_TRUE(
      rogue->Send(client->address(), EncodeReply(forged)).ok());

  sched.RunUntil([&] { return future.ready(); });
  const RpcResult r = future.take();
  ASSERT_TRUE(r.ok());
  const auto resp = serde::DecodeFromBytes<EchoResponse>(r.payload.view());
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
      rogue->Send(client->address(), EncodeReply(reply)).ok());
  sched.Run();
  EXPECT_EQ(client->stats().stray_replies, 1u);
}

TEST(RpcWire, DatagramBytesArePinned) {
  // A raw receiver on the middle node stands in for both peers' network
  // stacks, so the test sees each datagram exactly as the network
  // carries it: envelope, source port, frame. It relays the request to
  // the server, which answers the middle node. Args and result are 40 B
  // each, longer than any header field, so the golden bytes pin where a
  // bulk field and its length prefix land as well as the headers.
  sim::Scheduler sched;
  sim::Network net(sched, 1);
  const NodeId client_node = net.AddNode("client");
  const NodeId relay_node = net.AddNode("relay");
  const NodeId server_node = net.AddNode("server");
  net::NodeStack client_stack(net, client_node);
  net::NodeStack server_stack(net, server_node);
  std::vector<Bytes> captured;
  net.AttachReceiver(relay_node, [&captured](NodeId, PortId, Bytes framed) {
    captured.push_back(std::move(framed));
  });
  RpcClient client(*client_stack.OpenEndpoint(PortId(7)), 0x0C);
  RpcServer server(*server_stack.OpenEndpoint(PortId(9)));
  auto dispatch = std::make_shared<Dispatch>();
  dispatch->Register(
      4, [](BytesView args,
            const obs::TraceContext&) -> sim::Co<Result<Bytes>> {
        co_return Bytes(args.rbegin(), args.rend());
      });
  ASSERT_TRUE(server.ExportObject(ObjectId{1, 2}, dispatch).ok());

  Bytes args(40);
  for (std::size_t i = 0; i < args.size(); ++i) {
    args[i] = static_cast<std::uint8_t>(3 * i + 1);
  }
  auto call = client.Call(net::Address{relay_node, PortId(9)}, ObjectId{1, 2},
                          4, args);
  const auto arrived = [&captured](std::size_t n) {
    return [&captured, n] { return captured.size() == n; };
  };
  ASSERT_TRUE(sched.RunUntil(arrived(1)));
  const Bytes request = captured[0];
  // The reply, then a duplicate answered from the reply cache.
  ASSERT_TRUE(net.Send(relay_node, server_node, PortId(9), request).ok());
  ASSERT_TRUE(sched.RunUntil(arrived(2)));
  ASSERT_TRUE(net.Send(relay_node, server_node, PortId(9), request).ok());
  ASSERT_TRUE(sched.RunUntil(arrived(3)));
  EXPECT_EQ(server.stats().executions, 1u);
  EXPECT_EQ(server.stats().duplicate_suppressed, 1u);
  // The client retransmits the frame it kept, byte for byte.
  ASSERT_TRUE(sched.RunUntil(arrived(4)));
  EXPECT_FALSE(call.ready());

  const std::string request_hex =
      "5350" "01" "a5a10e79" "43"  // magic, version, CRC, length 67
      "07"                          // source port
      "01" "0c01"                   // tag: request; nonce, seq
      "0100000000000000" "0200000000000000" "04"  // object, method
      "28"                          // args: 40 bytes
      "0104070a0d101316191c1f2225282b2e3134373a3d404346494c4f5255585b5e"
      "6164676a6d707376"
      "00" "000000" "01";           // deadline, trace, priority
  const std::string reply_hex =
      "5350" "01" "b5f5f997" "30"  // magic, version, CRC, length 48
      "09"                          // source port
      "02" "0c01"                   // tag: reply; nonce, seq
      "00" "00" "00"                // code, error message, retry-after
      "28"                          // result: 40 bytes
      "7673706d6a6764615e5b5855524f4c494643403d3a3734312e2b2825221f1c19"
      "1613100d0a070401";
  EXPECT_EQ(HexString(View(captured[0]), 1024), request_hex);
  EXPECT_EQ(HexString(View(captured[1]), 1024), reply_hex);
  EXPECT_EQ(HexString(View(captured[2]), 1024), reply_hex);
  EXPECT_EQ(HexString(View(captured[3]), 1024), request_hex);
}

TEST(FrameCodec, RequestReplyRoundTrip) {
  RequestFrame req;
  req.call = CallId{0xAB, 7};
  req.object = ObjectId{1, 2};
  req.method = 9;
  const Bytes args = ToBytes("args");
  req.args = View(args);
  const Bytes encoded = EncodeRequest(req);
  const auto decoded = DecodeRequestView(View(encoded));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->call.client_nonce, 0xABu);
  EXPECT_EQ(decoded->method, 9u);
  EXPECT_EQ(ToString(decoded->args), "args");

  ReplyFrame reply;
  reply.call = decoded->call;
  reply.code = StatusCode::kNotFound;
  reply.error_message = "gone";
  const Bytes encoded_reply = EncodeReply(reply);
  const auto decoded_reply = DecodeReply(View(encoded_reply));
  ASSERT_TRUE(decoded_reply.ok());
  EXPECT_EQ(decoded_reply->code, StatusCode::kNotFound);
  EXPECT_EQ(decoded_reply->error_message, "gone");
  // Cross-decoding fails cleanly.
  EXPECT_FALSE(DecodeRequestView(View(encoded_reply)).ok());
  EXPECT_FALSE(DecodeReply(View(encoded)).ok());
}

}  // namespace
}  // namespace proxy::rpc

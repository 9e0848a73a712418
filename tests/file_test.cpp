// File service tests: stub semantics, block cache + prefetch + range
// invalidation, write-behind batching, and the protocol-equivalence
// property (T4's foundation): identical client code, identical results,
// under all three proxy protocols.
#include <gtest/gtest.h>

#include "core/factory.h"
#include "services/file.h"
#include "test_util.h"

namespace proxy::services {
namespace {

using core::Acquire;
using core::AcquireOptions;
using proxy::testing::TestWorld;

std::shared_ptr<IFile> BindFile(TestWorld& w, const std::string& name,
                                std::uint32_t protocol = 0) {
  std::shared_ptr<IFile> out;
  auto body = [&]() -> sim::Co<void> {
    AcquireOptions opts;
    opts.protocol_override = protocol;
    opts.allow_direct = false;
    Result<std::shared_ptr<IFile>> f =
        co_await Acquire<IFile>(*w.client_ctx, name, opts);
    CO_ASSERT_OK(f);
    out = *f;
  };
  w.Run(body);
  return out;
}

TEST(FileStubTest, ReadWriteSizeTruncate) {
  TestWorld w;
  auto exported = ExportFileService(*w.server_ctx, 1);
  ASSERT_OK(exported);
  w.Publish("file", exported->binding);
  auto file = BindFile(w, "file");

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await file->Write(0, ToBytes("hello world")));
    Result<std::uint64_t> size = co_await file->Size();
    CO_ASSERT_OK(size);
    EXPECT_EQ(*size, 11u);

    Result<Bytes> read = co_await file->Read(6, 5);
    CO_ASSERT_OK(read);
    EXPECT_EQ(ToString(View(*read)), "world");

    // Reads past EOF are short, not errors.
    Result<Bytes> past = co_await file->Read(100, 10);
    CO_ASSERT_OK(past);
    EXPECT_TRUE(past->empty());
    Result<Bytes> partial = co_await file->Read(9, 100);
    CO_ASSERT_OK(partial);
    EXPECT_EQ(ToString(View(*partial)), "ld");

    // Writing past EOF zero-fills the gap.
    CO_ASSERT_OK(co_await file->Write(20, ToBytes("far")));
    Result<Bytes> gap = co_await file->Read(11, 9);
    CO_ASSERT_OK(gap);
    EXPECT_EQ(gap->size(), 9u);
    for (const auto b : *gap) EXPECT_EQ(b, 0);

    CO_ASSERT_OK(co_await file->Truncate(5));
    Result<std::uint64_t> size2 = co_await file->Size();
    CO_ASSERT_OK(size2);
    EXPECT_EQ(*size2, 5u);
  };
  w.Run(body);
}

TEST(FileStubTest, OversizeWriteRefused) {
  TestWorld w;
  auto exported = ExportFileService(*w.server_ctx, 1);
  ASSERT_OK(exported);
  w.Publish("file", exported->binding);
  auto file = BindFile(w, "file");

  auto body = [&]() -> sim::Co<void> {
    Result<rpc::Void> too_big =
        co_await file->Write(FileService::kMaxFileSize, ToBytes("x"));
    EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);
    Result<rpc::Void> trunc_big =
        co_await file->Truncate(FileService::kMaxFileSize + 1);
    EXPECT_EQ(trunc_big.status().code(), StatusCode::kResourceExhausted);
  };
  w.Run(body);
}

TEST(FileCachingTest, SequentialReadsHitCacheAndPrefetch) {
  TestWorld w;
  auto exported = ExportFileService(*w.server_ctx, 2);
  ASSERT_OK(exported);
  exported->impl->FillPattern(64 * 1024);
  w.Publish("file", exported->binding);
  auto file = BindFile(w, "file");

  auto body = [&]() -> sim::Co<void> {
    // Sequential 1 KiB reads through 32 KiB: after the first block, the
    // prefetcher should stay ahead.
    for (std::uint64_t off = 0; off < 32 * 1024; off += 1024) {
      Result<Bytes> chunk = co_await file->Read(off, 1024);
      CO_ASSERT_OK(chunk);
      EXPECT_EQ(chunk->size(), 1024u);
    }
    // Give stragglers time to land, then re-read: all from cache.
    co_await sim::SleepFor(w.rt->scheduler(), Milliseconds(10));
    const auto msgs = w.rt->network().stats().messages_sent;
    for (std::uint64_t off = 0; off < 32 * 1024; off += 1024) {
      CO_ASSERT_OK(co_await file->Read(off, 1024));
    }
    EXPECT_EQ(w.rt->network().stats().messages_sent, msgs);
  };
  w.Run(body);

  auto* proxy = dynamic_cast<FileCachingProxy*>(file.get());
  ASSERT_NE(proxy, nullptr);
  EXPECT_GT(proxy->cache_stats().hits, 0u);
}

TEST(FileCachingTest, ReadSpanningBlocksAssembles) {
  TestWorld w;
  auto exported = ExportFileService(*w.server_ctx, 2);
  ASSERT_OK(exported);
  exported->impl->FillPattern(16 * 1024);
  w.Publish("file", exported->binding);
  auto file = BindFile(w, "file");

  auto body = [&]() -> sim::Co<void> {
    // 6000 bytes starting mid-block spans two 4 KiB blocks.
    Result<Bytes> chunk = co_await file->Read(3000, 6000);
    CO_ASSERT_OK(chunk);
    CO_ASSERT_TRUE(chunk->size() == 6000u);
    // Compare against a stub read of the same range.
    AcquireOptions opts;
    opts.protocol_override = 1;
    opts.allow_direct = false;
    Result<std::shared_ptr<IFile>> stub =
        co_await Acquire<IFile>(*w.client_ctx, "file", opts);
    CO_ASSERT_OK(stub);
    Result<Bytes> expected = co_await (*stub)->Read(3000, 6000);
    CO_ASSERT_OK(expected);
    EXPECT_EQ(*chunk, *expected);
  };
  w.Run(body);
}

TEST(FileCachingTest, WriteInvalidatesOverlappingBlocks) {
  TestWorld w;
  auto exported = ExportFileService(*w.server_ctx, 2);
  ASSERT_OK(exported);
  exported->impl->FillPattern(16 * 1024);
  w.Publish("file", exported->binding);
  auto file = BindFile(w, "file");

  auto body = [&]() -> sim::Co<void> {
    Result<Bytes> before = co_await file->Read(4096, 16);
    CO_ASSERT_OK(before);
    CO_ASSERT_OK(co_await file->Write(4096, ToBytes("overwritten data")));
    Result<Bytes> after = co_await file->Read(4096, 16);
    CO_ASSERT_OK(after);
    EXPECT_EQ(ToString(View(*after)), "overwritten data");
  };
  w.Run(body);
}

TEST(FileCachingTest, RemoteWriterInvalidatesThroughSubscription) {
  TestWorld w;
  auto exported = ExportFileService(*w.server_ctx, 2);
  ASSERT_OK(exported);
  exported->impl->FillPattern(8 * 1024);
  w.Publish("file", exported->binding);
  auto reader = BindFile(w, "file", 2);

  core::Context& writer_ctx = w.rt->CreateContext(w.client_node, "writer");
  std::shared_ptr<IFile> writer;
  auto bindw = [&]() -> sim::Co<void> {
    AcquireOptions opts;
    opts.protocol_override = 1;
    opts.allow_direct = false;
    Result<std::shared_ptr<IFile>> f =
        co_await Acquire<IFile>(writer_ctx, "file", opts);
    CO_ASSERT_OK(f);
    writer = *f;
  };
  w.Run(bindw);

  auto body = [&]() -> sim::Co<void> {
    Result<Bytes> cached = co_await reader->Read(0, 4);
    CO_ASSERT_OK(cached);

    CO_ASSERT_OK(co_await writer->Write(0, ToBytes("NEW!")));
    co_await sim::SleepFor(w.rt->scheduler(), Milliseconds(5));

    Result<Bytes> fresh = co_await reader->Read(0, 4);
    CO_ASSERT_OK(fresh);
    EXPECT_EQ(ToString(View(*fresh)), "NEW!");
  };
  w.Run(body);
}

TEST(FileCachingTest, TruncateInvalidatesTail) {
  TestWorld w;
  auto exported = ExportFileService(*w.server_ctx, 2);
  ASSERT_OK(exported);
  exported->impl->FillPattern(16 * 1024);
  w.Publish("file", exported->binding);
  auto file = BindFile(w, "file");

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await file->Read(12 * 1024, 1024));  // cache a tail block
    CO_ASSERT_OK(co_await file->Truncate(8 * 1024));
    Result<Bytes> gone = co_await file->Read(12 * 1024, 1024);
    CO_ASSERT_OK(gone);
    EXPECT_TRUE(gone->empty());
  };
  w.Run(body);
}

TEST(FileBatchTest, WritesCoalesceAndReadsFlushFirst) {
  TestWorld w;
  auto exported = ExportFileService(*w.server_ctx, 3);
  ASSERT_OK(exported);
  w.Publish("file", exported->binding);
  auto file = BindFile(w, "file");

  auto body = [&]() -> sim::Co<void> {
    for (int i = 0; i < 8; ++i) {
      CO_ASSERT_OK(co_await file->Write(static_cast<std::uint64_t>(i) * 4,
                                        ToBytes("abcd")));
    }
    // The read must observe every buffered write (flush-before-read).
    Result<Bytes> all = co_await file->Read(0, 32);
    CO_ASSERT_OK(all);
    CO_ASSERT_TRUE(all->size() == 32u);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(ToString(BytesView(all->data() + i * 4, 4)), "abcd");
    }
  };
  w.Run(body);

  auto* proxy = dynamic_cast<FileBatchProxy*>(file.get());
  ASSERT_NE(proxy, nullptr);
  EXPECT_LE(proxy->batch_stats().batches, 2u);
  EXPECT_EQ(proxy->batch_stats().items, 8u);
}

TEST(FileBatchTest, AFailedBatchIsNotServedAfterTheHeal) {
  TestWorld w;
  auto exported = ExportFileService(*w.server_ctx, 3);
  ASSERT_OK(exported);
  exported->impl->FillPattern(8 * 1024);
  w.Publish("file", exported->binding);
  auto file = BindFile(w, "file");
  auto* proxy = dynamic_cast<FileBatchProxy*>(file.get());
  ASSERT_NE(proxy, nullptr);

  auto warm = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await file->Read(0, 64));  // caches block 0
  };
  w.Run(warm);
  w.rt->scheduler().RunFor(Milliseconds(50));  // the prefetch lands
  w.rt->network().SetPartitioned(w.client_node, w.server_node, true);
  auto lose = [&]() -> sim::Co<void> {
    for (std::size_t i = 0; i < FileBatchProxy::kMaxBatch; ++i) {
      CO_ASSERT_OK(co_await file->Write(i * 4, ToBytes("abcd")));
    }
    const Status flushed = co_await proxy->FlushWrites();
    EXPECT_FALSE(flushed.ok());
  };
  w.Run(lose);
  w.rt->network().SetPartitioned(w.client_node, w.server_node, false);
  w.rt->scheduler().RunFor(Seconds(5));  // the circuit closes again

  // The writes patched block 0, but the server never stored them.
  auto read = [&]() -> sim::Co<void> {
    Result<Bytes> got = co_await file->Read(0, 64);
    CO_ASSERT_OK(got);
    EXPECT_EQ(*got, exported->impl->ReadAt(0, 64));
  };
  w.Run(read);
}

// Protocol equivalence: one scripted client run, three protocols, the
// final file contents must be byte-identical. This is experiment T4's
// correctness leg.
class FileProtocolEquivalence
    : public ::testing::TestWithParam<std::uint32_t> {};

sim::Co<void> ScriptedSession(std::shared_ptr<IFile> file,
                              sim::Scheduler& sched) {
  (void)co_await file->Write(0, ToBytes("The proxy principle, 1986."));
  (void)co_await file->Read(0, 10);
  (void)co_await file->Write(10, ToBytes("PRINCIPLE"));
  (void)co_await file->Read(5, 20);
  (void)co_await file->Write(100, ToBytes("tail data beyond a gap"));
  (void)co_await file->Truncate(110);
  (void)co_await file->Write(50, ToBytes("mid"));
  (void)co_await file->Read(0, 200);
  co_await sim::SleepFor(sched, Milliseconds(50));  // drain write-behind
}

TEST_P(FileProtocolEquivalence, SameClientScriptSameFinalBytes) {
  // Reference run with the plain stub.
  static Bytes reference;
  {
    TestWorld w(/*seed=*/99);
    auto exported = ExportFileService(*w.server_ctx, 1);
    ASSERT_OK(exported);
    w.Publish("file", exported->binding);
    auto file = BindFile(w, "file", 1);
    w.rt->Run(ScriptedSession(file, w.rt->scheduler()));
    reference = exported->impl->SnapshotState();
  }

  TestWorld w(/*seed=*/99);
  auto exported = ExportFileService(*w.server_ctx, GetParam());
  ASSERT_OK(exported);
  w.Publish("file", exported->binding);
  auto file = BindFile(w, "file", GetParam());
  w.rt->Run(ScriptedSession(file, w.rt->scheduler()));

  // Compare the *content* part of the snapshots (subscriber lists differ
  // by protocol, so decode and compare contents).
  FileService ref_svc(*w.server_ctx), got_svc(*w.server_ctx);
  ASSERT_TRUE(ref_svc.RestoreState(View(reference)).ok());
  ASSERT_TRUE(got_svc.RestoreState(View(exported->impl->SnapshotState())).ok());
  const Bytes ref_content = w.rt->Run(ref_svc.Read(0, 1 << 20)).value();
  const Bytes got_content = w.rt->Run(got_svc.Read(0, 1 << 20)).value();
  EXPECT_EQ(ref_content, got_content)
      << "protocol " << GetParam() << " diverged from the stub";
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, FileProtocolEquivalence,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace proxy::services

// Unit coverage for the observability layer (src/obs): histogram bucket
// and percentile edge cases, registry attach/detach fold semantics,
// deterministic export rendering, and span-tree reconstruction including
// orphans, open spans, and the capacity backstop.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace proxy::obs {
namespace {

// --- Histogram ---------------------------------------------------------

TEST(Histogram, EmptyReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
}

TEST(Histogram, SingleValueDrivesEveryPercentile) {
  Histogram h;
  h.Record(1500);  // between the 1µs and 2µs bounds -> 2µs bucket
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 1500u);
  EXPECT_EQ(h.max(), 1500u);
  EXPECT_EQ(h.min(), 1500u);
  EXPECT_EQ(h.Percentile(0.0), 2000u);
  EXPECT_EQ(h.Percentile(0.5), 2000u);
  EXPECT_EQ(h.Percentile(1.0), 2000u);
}

TEST(Histogram, ExactBoundLandsInItsBucket) {
  // Bounds are inclusive upper bounds: a value equal to a bound must not
  // spill into the next bucket.
  Histogram h(std::vector<std::uint64_t>{10, 20, 30});
  h.Record(10);
  h.Record(20);
  ASSERT_EQ(h.buckets().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 0u);
  EXPECT_EQ(h.Percentile(0.5), 10u);
  EXPECT_EQ(h.Percentile(1.0), 20u);
}

TEST(Histogram, OverflowBucketReportsObservedMax) {
  Histogram h(std::vector<std::uint64_t>{10, 20});
  h.Record(5000);
  h.Record(9999);
  EXPECT_EQ(h.buckets().back(), 2u);
  // No upper bound exists above the ladder; the honest answer is the max
  // actually seen, not some synthetic bound.
  EXPECT_EQ(h.Percentile(0.5), 9999u);
  EXPECT_EQ(h.Percentile(0.99), 9999u);
}

TEST(Histogram, PercentileRanksAcrossBuckets) {
  Histogram h(std::vector<std::uint64_t>{10, 20, 30});
  for (int i = 0; i < 50; ++i) h.Record(5);   // bucket <=10
  for (int i = 0; i < 45; ++i) h.Record(15);  // bucket <=20
  for (int i = 0; i < 5; ++i) h.Record(25);   // bucket <=30
  EXPECT_EQ(h.Percentile(0.50), 10u);
  EXPECT_EQ(h.Percentile(0.95), 20u);
  EXPECT_EQ(h.Percentile(0.99), 30u);
}

TEST(Histogram, QuantileArgumentIsClamped) {
  Histogram h(std::vector<std::uint64_t>{10});
  h.Record(1);
  EXPECT_EQ(h.Percentile(-0.5), 10u);
  EXPECT_EQ(h.Percentile(2.0), 10u);
}

TEST(Histogram, MergeSumsBucketsAndExtremes) {
  Histogram a(std::vector<std::uint64_t>{10, 20});
  Histogram b(std::vector<std::uint64_t>{10, 20});
  a.Record(5);
  b.Record(15);
  b.Record(99);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 119u);
  EXPECT_EQ(a.max(), 99u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.buckets()[0], 1u);
  EXPECT_EQ(a.buckets()[1], 1u);
  EXPECT_EQ(a.buckets()[2], 1u);  // overflow
}

TEST(Histogram, ResetRestoresEmptyState) {
  Histogram h;
  h.Record(123);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
}

TEST(Histogram, DefaultLadderCoversMicrosecondsToSeconds) {
  const auto& bounds = DefaultLatencyBounds();
  ASSERT_FALSE(bounds.empty());
  EXPECT_EQ(bounds.front(), 1000u);            // 1µs
  EXPECT_EQ(bounds.back(), 500'000'000'000u);  // 500s
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
}

// --- MetricsRegistry ---------------------------------------------------

TEST(MetricsRegistry, OwnedHandlesAreStableAndShared) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("a.count");
  Counter& c2 = reg.counter("a.count");
  EXPECT_EQ(&c1, &c2);
  c1.Inc(3);
  EXPECT_EQ(c2.value(), 3u);
}

TEST(MetricsRegistry, AttachedCellsSumWithOwned) {
  MetricsRegistry reg;
  reg.counter("x").Inc(5);
  Counter mine;
  mine.Inc(7);
  MetricScope scope(reg);
  scope.Attach("x", &mine);
  const auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].name, "x");
  EXPECT_EQ(snap[0].counter, 12u);
}

TEST(MetricsRegistry, DetachFoldsSoTotalsNeverRegress) {
  MetricsRegistry reg;
  {
    Counter shortlived;
    shortlived.Inc(9);
    MetricScope scope(reg);
    scope.Attach("x", &shortlived);
  }  // the cell is gone; its tally must not be
  const auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].counter, 9u);

  Counter next;
  next.Inc(1);
  MetricScope scope(reg);
  scope.Attach("x", &next);
  EXPECT_EQ(reg.Snapshot()[0].counter, 10u);
}

TEST(MetricsRegistry, HistogramDetachFoldsObservations) {
  MetricsRegistry reg;
  {
    Histogram h;
    h.Record(1000);
    h.Record(2000);
    MetricScope scope(reg);
    scope.Attach("lat", &h);
  }
  const auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].histogram.count(), 2u);
  EXPECT_EQ(snap[0].histogram.sum(), 3000u);
}

TEST(MetricScope, DetachesExactlyTheCellsAttachedThroughIt) {
  MetricsRegistry reg;
  Counter kept;
  kept.Inc(2);
  Gauge level;
  level.Set(4);
  MetricScope outer(reg);
  outer.Attach("x", &kept);
  outer.Attach("depth", &level);
  {
    Counter gone;
    gone.Inc(3);
    Gauge gone_level;
    gone_level.Set(5);
    MetricScope inner(reg);
    inner.Attach("x", &gone);
    inner.Attach("depth", &gone_level);
    EXPECT_EQ(reg.Snapshot()[1].counter, 5u);
    EXPECT_EQ(reg.Snapshot()[0].gauge, 9);
  }
  // The outer cells are still attached and still read live; the inner
  // counter's tally stays folded, and the inner gauge's level left.
  kept.Inc(1);
  level.Set(6);
  const auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "depth");
  EXPECT_EQ(snap[0].gauge, 6);
  EXPECT_EQ(snap[1].name, "x");
  EXPECT_EQ(snap[1].counter, 6u);
}

TEST(MetricsRegistry, SnapshotSortsByName) {
  MetricsRegistry reg;
  reg.counter("zz");
  reg.counter("aa");
  reg.counter("mm");
  const auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "aa");
  EXPECT_EQ(snap[1].name, "mm");
  EXPECT_EQ(snap[2].name, "zz");
}

TEST(MetricsRegistry, IdenticalFeedsRenderByteIdentically) {
  auto feed = [](MetricsRegistry& reg) {
    reg.counter("calls").Inc(42);
    reg.gauge("depth").Set(-3);
    Histogram& h = reg.histogram("lat");
    h.Record(1000);
    h.Record(250'000);
    h.Record(7'000'000'000ULL);
  };
  MetricsRegistry a;
  MetricsRegistry b;
  feed(a);
  feed(b);
  EXPECT_EQ(a.RenderTable(), b.RenderTable());
  EXPECT_EQ(a.RenderJson(), b.RenderJson());
  EXPECT_NE(a.RenderTable().find("calls 42"), std::string::npos);
  EXPECT_NE(a.RenderJson().find("\"calls\":42"), std::string::npos);
}

// --- SpanRecorder ------------------------------------------------------

TEST(SpanRecorder, DisabledRecorderIsInert) {
  SpanRecorder rec;  // disabled by default
  const TraceContext ctx = rec.Begin(TraceContext{}, "op", 10);
  EXPECT_FALSE(ctx.active());
  rec.Annotate(ctx, 20, "note");
  rec.End(ctx, 30, Status::Ok());
  rec.Event(40, "event");
  EXPECT_EQ(rec.span_count(), 0u);
  EXPECT_TRUE(rec.RenderAll().empty());
}

TEST(SpanRecorder, ChildSpansInheritTraceId) {
  SpanRecorder rec;
  rec.set_enabled(true);
  const TraceContext root = rec.Begin(TraceContext{}, "root", 0);
  const TraceContext child = rec.Begin(root, "child", 5);
  ASSERT_TRUE(root.active());
  ASSERT_TRUE(child.active());
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_EQ(child.parent_span_id, root.span_id);
  EXPECT_NE(child.span_id, root.span_id);
}

TEST(SpanRecorder, TreeRendersNestedAndOrdered) {
  SpanRecorder rec;
  rec.set_enabled(true);
  const TraceContext root = rec.Begin(TraceContext{}, "root", 0);
  const TraceContext late = rec.Begin(root, "late", 200);
  const TraceContext early = rec.Begin(root, "early", 100);
  rec.End(early, 150, Status::Ok());
  rec.End(late, 250, Status::Ok());
  rec.End(root, 300, Status::Ok());
  const std::string tree = rec.RenderTree(root.trace_id);
  const auto root_at = tree.find("root");
  const auto early_at = tree.find("early");
  const auto late_at = tree.find("late");
  ASSERT_NE(root_at, std::string::npos);
  ASSERT_NE(early_at, std::string::npos);
  ASSERT_NE(late_at, std::string::npos);
  // Siblings sort by start time, not creation order.
  EXPECT_LT(root_at, early_at);
  EXPECT_LT(early_at, late_at);
}

TEST(SpanRecorder, AnnotationsRenderInline) {
  SpanRecorder rec;
  rec.set_enabled(true);
  const TraceContext span = rec.Begin(TraceContext{}, "call", 0);
  rec.Annotate(span, 10, "rebind -> node-2");
  rec.End(span, 20, Status::Ok());
  EXPECT_NE(rec.RenderTree(span.trace_id).find("rebind -> node-2"),
            std::string::npos);
}

TEST(SpanRecorder, UnfinishedSpanRendersOpen) {
  SpanRecorder rec;
  rec.set_enabled(true);
  const TraceContext span = rec.Begin(TraceContext{}, "stuck", 0);
  EXPECT_NE(rec.RenderTree(span.trace_id).find("OPEN"), std::string::npos);
}

TEST(SpanRecorder, OrphanedChildSurfacesAsRoot) {
  SpanRecorder rec;
  rec.set_enabled(true);
  // A parent context whose span was never recorded (e.g. dropped at
  // capacity on another layer): the child must not vanish from the tree.
  TraceContext ghost_parent;
  ghost_parent.trace_id = 0xDEAD;
  ghost_parent.span_id = 0xBEEF;
  const TraceContext orphan = rec.Begin(ghost_parent, "orphan", 7);
  ASSERT_TRUE(orphan.active());
  EXPECT_EQ(orphan.trace_id, 0xDEADu);
  EXPECT_NE(rec.RenderTree(0xDEAD).find("orphan"), std::string::npos);
}

TEST(SpanRecorder, CapacityBoundsSpansAndCountsDrops) {
  SpanRecorder rec;
  rec.set_enabled(true);
  rec.set_capacity(2);
  const TraceContext a = rec.Begin(TraceContext{}, "a", 0);
  const TraceContext b = rec.Begin(TraceContext{}, "b", 1);
  const TraceContext c = rec.Begin(TraceContext{}, "c", 2);
  EXPECT_TRUE(a.active());
  EXPECT_TRUE(b.active());
  EXPECT_FALSE(c.active());
  EXPECT_EQ(rec.span_count(), 2u);
  EXPECT_EQ(rec.dropped(), 1u);
  EXPECT_NE(rec.RenderAll().find("dropped at capacity"), std::string::npos);
}

TEST(SpanRecorder, EventsRenderWithEveryDump) {
  SpanRecorder rec;
  rec.set_enabled(true);
  rec.Event(42, "promoted to primary at epoch 2");
  EXPECT_NE(rec.RenderAll().find("promoted to primary at epoch 2"),
            std::string::npos);
}

TEST(SpanRecorder, IdenticalSequencesRenderByteIdentically) {
  auto feed = [](SpanRecorder& rec) {
    rec.set_enabled(true);
    const TraceContext root = rec.Begin(TraceContext{}, "proxy m1", 1000);
    const TraceContext child = rec.Begin(root, "exec m1", 2000);
    rec.Annotate(root, 1500, "rebind");
    rec.End(child, 2500, Status::Ok());
    rec.End(root, 3000, Status::Ok());
    rec.Event(4000, "heal");
  };
  SpanRecorder a;
  SpanRecorder b;
  feed(a);
  feed(b);
  EXPECT_EQ(a.RenderAll(), b.RenderAll());
  EXPECT_EQ(a.TraceIds(), b.TraceIds());
}

TEST(SpanRecorder, ClearResetsIdsForReplay) {
  SpanRecorder rec;
  rec.set_enabled(true);
  const TraceContext first = rec.Begin(TraceContext{}, "x", 0);
  rec.Clear();
  const TraceContext again = rec.Begin(TraceContext{}, "x", 0);
  // Monotonic ids restart from the same origin: a replay after Clear
  // mints the exact same identifiers.
  EXPECT_EQ(first.trace_id, again.trace_id);
  EXPECT_EQ(first.span_id, again.span_id);
}

}  // namespace
}  // namespace proxy::obs

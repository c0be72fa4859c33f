// Tests for the structured tracing subsystem (common/trace.h) and the
// histogram/Prometheus metrics extensions (common/metrics.h): span nesting
// and timing monotonicity, histogram bucket boundaries and exact quantiles
// on known data, and a Prometheus text-exposition round-trip.
#include "solap/common/trace.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "solap/common/metrics.h"

namespace solap {
namespace {

using Span = TraceContext::Span;

const Span* FindSpan(const std::vector<Span>& spans, const std::string& name) {
  for (const Span& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST(TraceSpanTest, ImplicitNestingFollowsScopes) {
  TraceContext ctx;
  {
    TraceSpan root(&ctx, "root");
    {
      TraceSpan child(&ctx, "child");
      TraceSpan grandchild(&ctx, "grandchild");
      (void)grandchild;
      (void)child;
    }
    TraceSpan sibling(&ctx, "sibling");
    (void)sibling;
    (void)root;
  }
  std::vector<Span> spans = ctx.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  const Span* root = FindSpan(spans, "root");
  const Span* child = FindSpan(spans, "child");
  const Span* grandchild = FindSpan(spans, "grandchild");
  const Span* sibling = FindSpan(spans, "sibling");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, -1);
  EXPECT_EQ(spans[static_cast<size_t>(child->parent)].name, "root");
  EXPECT_EQ(spans[static_cast<size_t>(grandchild->parent)].name, "child");
  EXPECT_EQ(spans[static_cast<size_t>(sibling->parent)].name, "root");
}

TEST(TraceSpanTest, NullContextIsInactiveAndHarmless) {
  TraceSpan span(nullptr, "nothing");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.id(), -1);
  span.Count("k", 1);
  span.Note("k", "v");
  span.End();
}

TEST(TraceSpanTest, ExplicitParentCrossesThreads) {
  TraceContext ctx;
  TraceSpan parent(&ctx, "parent");
  std::thread t([&] {
    TraceSpan shard(&ctx, "shard", parent.id());
    shard.Count("items", 7);
  });
  t.join();
  parent.End();
  std::vector<Span> spans = ctx.Snapshot();
  const Span* shard = FindSpan(spans, "shard");
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(spans[static_cast<size_t>(shard->parent)].name, "parent");
  // The shard recorded from a different thread gets its own tid ordinal.
  EXPECT_NE(shard->tid, FindSpan(spans, "parent")->tid);
  ASSERT_EQ(shard->counters.size(), 1u);
  EXPECT_EQ(shard->counters[0].first, "items");
  EXPECT_EQ(shard->counters[0].second, 7u);
}

TEST(TraceSpanTest, TimingIsMonotoneAndNested) {
  TraceContext ctx;
  {
    TraceSpan outer(&ctx, "outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      TraceSpan inner(&ctx, "inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  std::vector<Span> spans = ctx.Snapshot();
  const Span* outer = FindSpan(spans, "outer");
  const Span* inner = FindSpan(spans, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_FALSE(outer->open);
  EXPECT_FALSE(inner->open);
  // The child starts after the parent and ends before it.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns, outer->start_ns + outer->dur_ns);
  EXPECT_GT(inner->dur_ns, 0u);
  EXPECT_GE(outer->dur_ns, inner->dur_ns);
  EXPECT_GE(ctx.TotalMs(),
            static_cast<double>(outer->dur_ns) / 1e6 - 1e-9);
}

TEST(TraceSpanTest, SelfTimesTelescopeToRootInSerialExecution) {
  // The EXPLAIN ANALYZE acceptance check relies on this identity: in a
  // serial execution, the self times (wall minus direct children) of all
  // spans sum exactly to the root's wall time.
  TraceContext ctx;
  {
    TraceSpan root(&ctx, "root");
    {
      TraceSpan a(&ctx, "a");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      TraceSpan a1(&ctx, "a1");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    TraceSpan b(&ctx, "b");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<Span> spans = ctx.Snapshot();
  std::vector<uint64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.dur_ns;
  }
  uint64_t self_sum = 0;
  uint64_t root_dur = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    self_sum += spans[i].dur_ns - child_ns[i];
    if (spans[i].parent == -1) root_dur = spans[i].dur_ns;
  }
  EXPECT_EQ(self_sum, root_dur);
}

TEST(TraceContextTest, AddTimedSpanRecordsClosedIntervals) {
  const auto before_ctx = std::chrono::steady_clock::now();
  TraceContext ctx;
  const auto a = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto b = std::chrono::steady_clock::now();
  int id = ctx.AddTimedSpan("queue_wait", a, b, -1);
  EXPECT_GE(id, 0);
  // Intervals predating the context's epoch clamp to zero instead of
  // wrapping around.
  ctx.AddTimedSpan("pre_epoch", before_ctx, before_ctx, -1);
  std::vector<Span> spans = ctx.Snapshot();
  const Span* wait = FindSpan(spans, "queue_wait");
  ASSERT_NE(wait, nullptr);
  EXPECT_FALSE(wait->open);
  EXPECT_GT(wait->dur_ns, 0u);
  const Span* pre = FindSpan(spans, "pre_epoch");
  ASSERT_NE(pre, nullptr);
  EXPECT_EQ(pre->start_ns, 0u);
  EXPECT_EQ(pre->dur_ns, 0u);
}

TEST(TraceContextTest, ToStringRendersTreeWithCountersAndNotes) {
  TraceContext ctx;
  {
    TraceSpan root(&ctx, "query");
    TraceSpan child(&ctx, "exec.ii");
    child.Count("intersections", 42);
    child.Note("kernel", "galloping");
  }
  std::string s = ctx.ToString();
  EXPECT_NE(s.find("query"), std::string::npos);
  EXPECT_NE(s.find("  exec.ii"), std::string::npos);  // indented child
  EXPECT_NE(s.find("intersections=42"), std::string::npos);
  EXPECT_NE(s.find("kernel=galloping"), std::string::npos);
  EXPECT_NE(s.find("self"), std::string::npos);
}

TEST(TraceContextTest, ChromeJsonHasCompleteEventsAndArgs) {
  TraceContext ctx;
  {
    TraceSpan root(&ctx, "query");
    TraceSpan child(&ctx, "cb.group");
    child.Count("sequences", 5);
    child.Note("note", "a \"quoted\" value");
  }
  std::string json = ctx.ToChromeJson();
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"cb.group\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"sequences\":5"), std::string::npos);
  // Quotes inside notes are escaped.
  EXPECT_NE(json.find("a \\\"quoted\\\" value"), std::string::npos);
  // Balanced braces (a cheap structural sanity check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(HistogramTest, BucketBoundariesArePowersOfTwoMicroseconds) {
  Histogram h;
  h.ObserveUs(0.5);    // bucket 0: < 1us
  h.ObserveUs(1.0);    // bucket 1: [1, 2)
  h.ObserveUs(1.99);   // bucket 1
  h.ObserveUs(2.0);    // bucket 2: [2, 4)
  h.ObserveUs(1000.0); // bucket 10: [512, 1024)
  Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 2u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[10], 1u);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperUs(0), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperUs(10), 1024.0);
}

TEST(HistogramTest, ExactQuantilesOnKnownData) {
  Histogram h;
  // 90 observations of 1ms (bucket 10, upper bound 1.024ms) and 10 of
  // 10ms (bucket 14, upper bound 16.384ms).
  for (int i = 0; i < 90; ++i) h.ObserveMs(1.0);
  for (int i = 0; i < 10; ++i) h.ObserveMs(10.0);
  Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.p50_ms, 1.024);
  EXPECT_DOUBLE_EQ(s.p95_ms, 16.384);
  EXPECT_DOUBLE_EQ(s.p99_ms, 16.384);
  EXPECT_NEAR(s.mean_ms, 0.9 * 1.0 + 0.1 * 10.0, 0.01);
}

TEST(MetricsRegistryTest, PrometheusExpositionRoundTrips) {
  MetricsRegistry reg;
  reg.counter("queries_ok")->Inc(3);
  reg.gauge("mem_used_bytes")->Set(1234);
  Histogram* h = reg.histogram("exec_ms_ii");
  h->ObserveMs(1.0);
  h->ObserveMs(1.0);
  h->ObserveMs(100.0);

  std::string text = reg.ToPrometheus();
  EXPECT_NE(text.find("# TYPE solap_queries_ok counter"), std::string::npos);
  EXPECT_NE(text.find("solap_queries_ok 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE solap_mem_used_bytes gauge"),
            std::string::npos);
  EXPECT_NE(text.find("solap_mem_used_bytes 1234"), std::string::npos);
  EXPECT_NE(text.find("# TYPE solap_exec_ms_ii histogram"),
            std::string::npos);

  // Parse the bucket series back: cumulative counts must be monotone and
  // the +Inf bucket must equal _count.
  std::istringstream is(text);
  std::string line;
  uint64_t last_cum = 0;
  uint64_t inf_value = 0;
  uint64_t count_value = 0;
  bool saw_sum = false;
  size_t bucket_lines = 0;
  while (std::getline(is, line)) {
    if (line.rfind("solap_exec_ms_ii_bucket", 0) == 0) {
      ++bucket_lines;
      uint64_t v = std::stoull(line.substr(line.rfind(' ') + 1));
      EXPECT_GE(v, last_cum) << line;
      last_cum = v;
      if (line.find("+Inf") != std::string::npos) inf_value = v;
    } else if (line.rfind("solap_exec_ms_ii_sum", 0) == 0) {
      saw_sum = true;
      EXPECT_NEAR(std::stod(line.substr(line.rfind(' ') + 1)), 102.0, 0.5);
    } else if (line.rfind("solap_exec_ms_ii_count", 0) == 0) {
      count_value = std::stoull(line.substr(line.rfind(' ') + 1));
    }
  }
  EXPECT_EQ(bucket_lines, Histogram::kNumBuckets);
  EXPECT_TRUE(saw_sum);
  EXPECT_EQ(count_value, 3u);
  EXPECT_EQ(inf_value, count_value);
}

}  // namespace
}  // namespace solap

// Tests for src/obs/: the span ring (overflow drops-oldest, concurrent
// writers collected safely), trace-context propagation, the span-line and
// Chrome trace exporters, NDJSON logging, stage histograms, and the fleet
// health plane (scrape merging and parsing).
#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/health.h"
#include "obs/log.h"
#include "obs/stages.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace wfit::obs {
namespace {

#ifndef WFIT_DISABLE_TRACING

/// Every tracing test runs with the runtime switch on and an empty ring,
/// and leaves tracing off so unrelated suites stay uninstrumented.
class TracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTracingEnabled(true);
    ClearTraceForTest();
  }
  void TearDown() override {
    SetTracingEnabled(false);
    ClearTraceForTest();
  }
};

TEST_F(TracingTest, SpanGuardRecordsNestedParents) {
  uint64_t outer_trace = 0;
  uint64_t outer_span = 0;
  {
    SpanGuard outer("outer");
    outer.SetDetail("root of the test trace");
    outer_trace = outer.trace_id();
    outer_span = outer.span_id();
    ASSERT_NE(outer_trace, 0u);
    SpanGuard inner("inner");
    EXPECT_EQ(inner.trace_id(), outer_trace);
  }
  std::vector<Span> spans = CollectSpans();
  ASSERT_EQ(spans.size(), 2u);
  // Rings store completion order: inner closes first.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].trace_id, outer_trace);
  EXPECT_EQ(spans[0].parent_span, outer_span);
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent_span, 0u);
  EXPECT_STREQ(spans[1].detail, "root of the test trace");
}

TEST_F(TracingTest, ScopedTraceContextInstallsAndRestores) {
  EXPECT_FALSE(CurrentTraceContext().active());
  {
    ScopedTraceContext ctx(TraceContext{42, 7});
    EXPECT_EQ(CurrentTraceContext().trace_id, 42u);
    EXPECT_EQ(CurrentTraceContext().parent_span, 7u);
    SpanGuard child("child");
    EXPECT_EQ(child.trace_id(), 42u);
  }
  EXPECT_FALSE(CurrentTraceContext().active());
  std::vector<Span> spans = CollectSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].trace_id, 42u);
  EXPECT_EQ(spans[0].parent_span, 7u);
}

TEST_F(TracingTest, DisabledGuardRecordsNothing) {
  SetTracingEnabled(false);
  {
    SpanGuard span("ghost");
    span.SetDetail("never recorded");
    EXPECT_EQ(span.trace_id(), 0u);
    RecordInstant("ghost.instant");
  }
  EXPECT_TRUE(CollectSpans().empty());
}

TEST_F(TracingTest, RingOverflowDropsOldestAndCounts) {
  // Well past one ring (4096 spans per thread): only the newest survive.
  constexpr int kPushed = 6000;
  for (int i = 0; i < kPushed; ++i) {
    RecordInstant("overflow", "n" + std::to_string(i));
  }
  std::vector<Span> spans = CollectSpans();
  ASSERT_FALSE(spans.empty());
  ASSERT_LE(spans.size(), 4096u);
  // Drops-oldest: the final span pushed is present, the first is gone.
  EXPECT_STREQ(spans.back().detail, ("n" + std::to_string(kPushed - 1)).c_str());
  for (const Span& s : spans) {
    EXPECT_STRNE(s.detail, "n0");
  }
  TraceCounters counters = CollectTraceCounters();
  EXPECT_EQ(counters.recorded, static_cast<uint64_t>(kPushed));
  EXPECT_EQ(counters.dropped, static_cast<uint64_t>(kPushed) - 4096u);
}

TEST_F(TracingTest, ConcurrentWritersAndCollectorAreClean) {
  // TSan coverage: writer threads push while the main thread collects.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<bool> stop{false};
  std::thread collector([&] {
    while (!stop.load()) {
      (void)CollectSpans();
      (void)CollectTraceCounters();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        SpanGuard span("worker");
        span.SetDetail("t" + std::to_string(t));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  collector.join();
  // Every span survives (each thread has its own ring, none overflowed
  // within this test's window).
  std::vector<Span> spans = CollectSpans();
  size_t workers = 0;
  for (const Span& s : spans) {
    if (std::string(s.name) == "worker") ++workers;
  }
  EXPECT_EQ(workers, static_cast<size_t>(kThreads) * kPerThread);
}

TEST_F(TracingTest, SpanLineRoundTrip) {
  Span span{};
  span.trace_id = 0xdeadbeefcafef00dull;
  span.span_id = 0x1234567890abcdefull;
  span.parent_span = 17;
  span.start_ns = 1000000;
  span.dur_ns = 2500;
  span.tid = 3;
  std::snprintf(span.name, sizeof(span.name), "%s", "analyze");
  std::snprintf(span.detail, sizeof(span.detail), "%s", "seq 42 extra");
  std::string line = FormatSpanLine(span);
  Span parsed{};
  ASSERT_TRUE(ParseSpanLine(line, &parsed));
  EXPECT_EQ(parsed.trace_id, span.trace_id);
  EXPECT_EQ(parsed.span_id, span.span_id);
  EXPECT_EQ(parsed.parent_span, span.parent_span);
  EXPECT_EQ(parsed.start_ns, span.start_ns);
  EXPECT_EQ(parsed.dur_ns, span.dur_ns);
  EXPECT_EQ(parsed.tid, span.tid);
  EXPECT_STREQ(parsed.name, span.name);
  EXPECT_STREQ(parsed.detail, span.detail);

  // Bulk: bad lines are skipped, good ones parsed.
  std::string text = line + "\nnot a span line\n" + line + "\n";
  EXPECT_EQ(ParseSpanLines(text).size(), 2u);
  EXPECT_TRUE(ParseSpanLine("garbage", &parsed) == false);
}

TEST_F(TracingTest, ChromeTraceJsonSchema) {
  {
    SpanGuard outer("request");
    SpanGuard inner("analyze");
    inner.SetDetail("seq 7");
  }
  std::string json = ChromeTraceJson(CollectSpans(), "node a");
  // The schema Perfetto/chrome://tracing require: a traceEvents array,
  // a process_name metadata event, and "X" duration events with pid/tid/
  // ts/dur members.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("node a"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"analyze\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);

  // Multi-process merge: one pid per node.
  std::vector<std::pair<std::string, std::vector<Span>>> processes;
  processes.emplace_back("node a", CollectSpans());
  processes.emplace_back("node b", CollectSpans());
  std::string multi = ChromeTraceJsonMulti(processes);
  EXPECT_NE(multi.find("node a"), std::string::npos);
  EXPECT_NE(multi.find("node b"), std::string::npos);
}

TEST_F(TracingTest, LogAttachesActiveTraceIds) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  SetLogSink(sink);
  {
    ScopedTraceContext ctx(TraceContext{0xabc, 0xdef});
    Log(LogLevel::kInfo, "unit.traced").Str("key", "value");
  }
  SetLogSink(nullptr);
  std::fflush(sink);
  std::rewind(sink);
  char buf[512] = {};
  ASSERT_GT(std::fread(buf, 1, sizeof(buf) - 1, sink), 0u);
  std::fclose(sink);
  const std::string line(buf);
  EXPECT_NE(line.find("\"event\":\"unit.traced\""), std::string::npos);
  EXPECT_NE(line.find("\"trace\":\"0000000000000abc\""), std::string::npos);
  EXPECT_NE(line.find("\"key\":\"value\""), std::string::npos);
}

TEST_F(TracingTest, StageSpanFeedsHistogramAndTrace) {
  struct CountingSink : StageSink {
    int calls = 0;
    Stage last = Stage::kQueueWait;
    void RecordStage(Stage stage, uint64_t) override {
      ++calls;
      last = stage;
    }
  } sink;
  {
    ScopedStageSink install(&sink);
    StageSpan stage(Stage::kProbe, "probe.real");
    EXPECT_NE(stage.trace_id(), 0u);
    stage.SetDetail("one probe");
  }
  EXPECT_EQ(sink.calls, 1);
  EXPECT_EQ(sink.last, Stage::kProbe);
  std::vector<Span> spans = CollectSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "probe.real");
  EXPECT_STREQ(spans[0].detail, "one probe");

  // Runtime-disabled tracing still records the histogram, but no span.
  SetTracingEnabled(false);
  {
    ScopedStageSink install(&sink);
    StageSpan stage(Stage::kIbgBuild, "ibg.build");
    EXPECT_EQ(stage.trace_id(), 0u);
  }
  EXPECT_EQ(sink.calls, 2);
  EXPECT_EQ(sink.last, Stage::kIbgBuild);
  EXPECT_EQ(CollectSpans().size(), 1u);
}

#endif  // WFIT_DISABLE_TRACING

TEST(StageTest, NamesAndSinkRecording) {
  EXPECT_STREQ(StageName(Stage::kQueueWait), "queue_wait");
  EXPECT_STREQ(StageName(Stage::kIbgBuild), "ibg_build");
  EXPECT_STREQ(StageName(Stage::kProbe), "probe");
  EXPECT_STREQ(StageName(Stage::kCheckpointWrite), "checkpoint_write");

  struct CountingSink : StageSink {
    std::atomic<uint64_t> total_ns{0};
    std::atomic<int> calls{0};
    void RecordStage(Stage, uint64_t ns) override {
      total_ns += ns;
      ++calls;
    }
  } sink;

  // No sink installed: recording is a no-op.
  RecordStage(Stage::kProbe, 1000);
  EXPECT_EQ(sink.calls.load(), 0);
  {
    ScopedStageSink install(&sink);
    RecordStage(Stage::kProbe, 1000);
    { StageSpan stage(Stage::kIbgBuild, "ibg.build"); }
    EXPECT_EQ(CurrentStageSink(), &sink);
  }
  EXPECT_EQ(CurrentStageSink(), nullptr);
  EXPECT_EQ(sink.calls.load(), 2);
  EXPECT_GE(sink.total_ns.load(), 1000u);
}

TEST(LogTest, NdjsonFormatAndLevelFilter) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  SetLogSink(sink);
  SetLogLevel(LogLevel::kInfo);
  Log(LogLevel::kDebug, "unit.suppressed").U64("n", 1);
  Log(LogLevel::kWarn, "unit.kept")
      .Str("tenant", "t\"quoted\"")
      .U64("count", 12)
      .I64("delta", -3)
      .Dbl("ratio", 0.5)
      .Bool("ok", true);
  SetLogSink(nullptr);
  std::fflush(sink);
  std::rewind(sink);
  char buf[1024] = {};
  ASSERT_GT(std::fread(buf, 1, sizeof(buf) - 1, sink), 0u);
  std::fclose(sink);
  const std::string text(buf);
  EXPECT_EQ(text.find("unit.suppressed"), std::string::npos);
  EXPECT_NE(text.find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"unit.kept\""), std::string::npos);
  EXPECT_NE(text.find("\"tenant\":\"t\\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(text.find("\"count\":12"), std::string::npos);
  EXPECT_NE(text.find("\"delta\":-3"), std::string::npos);
  EXPECT_NE(text.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(text.find("\"ts_ms\":"), std::string::npos);
  // One record per line, newline-terminated.
  EXPECT_EQ(text.back(), '\n');
}

TEST(HealthTest, ParseScrapeReadsSeriesByKey) {
  const std::string text =
      "# HELP wfit_node_failovers_total Dead-node takeovers.\n"
      "# TYPE wfit_node_failovers_total counter\n"
      "wfit_node_failovers_total 3\n"
      "\n"
      "wfit_node_peer_health{peer=\"b\"} 1\n"
      "wfit_node_peer_silence_ms{peer=\"c\"} 1200 1700000000000\n"
      "wfit_lat_bucket{le=\"+Inf\"} 4\n"
      "wfit_lat_sum 9.5\n"
      "wfit_odd{tenant=\"a } b\\\"c\"} 7\n"
      "wfit_gauge -2.5e3\n"
      "wfit_repeated 1\n"
      "wfit_repeated 2\n"
      // Unreadable lines are skipped, never fatal.
      "wfit_no_value\n"
      "wfit_word abc\n"
      "wfit_glued{a=\"1\"}5\n"
      "wfit_open{a=\"1\" 5\n"
      "{peer=\"x\"} 1\n"
      " 4\n"
      "wfit_last 8";
  const std::map<std::string, double> series = ParseScrape(text);
  const std::map<std::string, double> expected = {
      {"wfit_node_failovers_total", 3},
      {"wfit_node_peer_health{peer=\"b\"}", 1},
      {"wfit_node_peer_silence_ms{peer=\"c\"}", 1200},
      {"wfit_lat_bucket{le=\"+Inf\"}", 4},
      {"wfit_lat_sum", 9.5},
      {"wfit_odd{tenant=\"a } b\\\"c\"}", 7},
      {"wfit_gauge", -2500},
      {"wfit_repeated", 2},
      {"wfit_last", 8}};
  EXPECT_EQ(series, expected);
  EXPECT_TRUE(ParseScrape("").empty());
}

TEST(HealthTest, MergeFleetScrapeInjectsNodeLabels) {
  const std::string scrape_a =
      "# HELP wfit_m statements.\n"
      "# TYPE wfit_m counter\n"
      "wfit_m 10\n"
      "# HELP wfit_lat latency.\n"
      "# TYPE wfit_lat histogram\n"
      "wfit_lat_bucket{le=\"+Inf\"} 4\n"
      "wfit_lat_sum 9.5\n"
      "wfit_lat_count 4\n"
      "wfit_tenant{tenant=\"t0\"} 2\n";
  const std::string scrape_b =
      "# HELP wfit_m statements.\n"
      "# TYPE wfit_m counter\n"
      "wfit_m 20\n";
  std::string merged =
      MergeFleetScrapeText({{"a", scrape_a}, {"b", scrape_b}});

  // Unlabelled samples gain {node="..."}; labelled samples get node first.
  EXPECT_NE(merged.find("wfit_m{node=\"a\"} 10"), std::string::npos);
  EXPECT_NE(merged.find("wfit_m{node=\"b\"} 20"), std::string::npos);
  EXPECT_NE(merged.find("wfit_lat_bucket{node=\"a\",le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(merged.find("wfit_tenant{node=\"a\",tenant=\"t0\"} 2"),
            std::string::npos);
  // Headers appear exactly once per family, and both nodes' wfit_m samples
  // sit in one contiguous family block under that single header.
  EXPECT_EQ(merged.find("# HELP wfit_m"), merged.rfind("# HELP wfit_m"));
  EXPECT_EQ(merged.find("# TYPE wfit_m"), merged.rfind("# TYPE wfit_m"));
  // Histogram children group under the base family (after its header).
  EXPECT_LT(merged.find("# TYPE wfit_lat"), merged.find("wfit_lat_sum"));
}

}  // namespace
}  // namespace wfit::obs

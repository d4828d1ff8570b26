/**
 * Tests for the telemetry layer: RAII spans + thread-local rings +
 * Chrome-trace export, and the unified metrics registry (counters,
 * gauges, fixed-bucket histograms, stable JSON dump).
 *
 * The registry and the tracing globals are process-wide, so every
 * test works with deltas (snapshot before, compare after) or with
 * uniquely named metrics, and tracing tests reset the collected
 * event store up front.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.hpp"
#include "runtime/eventlog.hpp"
#include "runtime/telemetry.hpp"

namespace eventlog = apex::eventlog;

namespace {

using namespace apex::telemetry;

/** Enable tracing for one test; restores "off" and clears the event
 * store on exit so tests compose in any order. */
class TracingScope {
  public:
    TracingScope()
    {
        resetTracingForTesting();
        setTracingEnabled(true);
    }
    ~TracingScope()
    {
        setTracingEnabled(false);
        resetTracingForTesting();
    }
};

/** Collected events named @p name (collect() first). */
std::vector<SpanEvent>
eventsNamed(const std::string &name)
{
    collect();
    std::vector<SpanEvent> out;
    for (const SpanEvent &ev : events())
        if (ev.name == name)
            out.push_back(ev);
    return out;
}

TEST(Span, RecordsNameArgsAndDuration)
{
    TracingScope tracing;
    {
        APEX_SPAN("t.record", {{"app", "camera"}, {"level", 2}});
    }
    const auto evs = eventsNamed("t.record");
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].depth, 0);
    EXPECT_GE(evs[0].dur_us, 0.0);
    EXPECT_NE(evs[0].args.find("\"app\":\"camera\""),
              std::string::npos);
    EXPECT_NE(evs[0].args.find("\"level\":2"), std::string::npos);
}

TEST(Span, NestingRecordsDepthAndContainment)
{
    TracingScope tracing;
    {
        APEX_SPAN("t.outer");
        {
            APEX_SPAN("t.inner");
        }
    }
    const auto outer = eventsNamed("t.outer");
    const auto inner = eventsNamed("t.inner");
    ASSERT_EQ(outer.size(), 1u);
    ASSERT_EQ(inner.size(), 1u);
    EXPECT_EQ(outer[0].depth, 0);
    EXPECT_EQ(inner[0].depth, 1);
    // The child interval lies inside the parent interval.
    EXPECT_LE(outer[0].ts_us, inner[0].ts_us);
    EXPECT_GE(outer[0].ts_us + outer[0].dur_us,
              inner[0].ts_us + inner[0].dur_us);
}

TEST(Span, ScopedCellTagsSpansAndRestoresPrevious)
{
    TracingScope tracing;
    {
        ScopedCell outer_cell;
        outer_cell.set("camera/pe1");
        {
            APEX_SPAN("t.tagged");
        }
        {
            ScopedCell inner_cell;
            inner_cell.set("camera/pe4");
            APEX_SPAN("t.retagged");
        }
        {
            APEX_SPAN("t.tagged_again");
        }
    }
    EXPECT_EQ(eventsNamed("t.tagged").at(0).scope, "camera/pe1");
    EXPECT_EQ(eventsNamed("t.retagged").at(0).scope, "camera/pe4");
    // The inner ScopedCell restored the outer cell, not "".
    EXPECT_EQ(eventsNamed("t.tagged_again").at(0).scope,
              "camera/pe1");
}

TEST(Span, LaneAttributionFollowsSetLane)
{
    TracingScope tracing;
    std::thread worker([] {
        setLane(7);
        {
            APEX_SPAN("t.lane");
        }
        setLane(-1);
    });
    worker.join();
    const auto evs = eventsNamed("t.lane");
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].lane, 7);
}

TEST(Span, DisabledPathRecordsNothingAndSkipsArgs)
{
    resetTracingForTesting();
    setTracingEnabled(false);
    const long long before = spansRecorded();
    int arg_evals = 0;
    auto expensive = [&arg_evals] {
        ++arg_evals;
        return std::string("value");
    };
    for (int i = 0; i < 100; ++i) {
        APEX_SPAN("t.disabled", {{"k", expensive()}});
    }
    EXPECT_EQ(spansRecorded(), before);
    // APEX_SPAN must not evaluate its argument list when disabled.
    EXPECT_EQ(arg_evals, 0);
    collect();
    EXPECT_TRUE(eventsNamed("t.disabled").empty());
}

TEST(Span, RingWrapDropsInsteadOfBlocking)
{
    TracingScope tracing;
    setRingCapacityForTesting(4);
    const long long dropped_before = droppedEvents();
    // A fresh thread gets the tiny ring; nobody drains it while the
    // thread floods it, so everything past the capacity is dropped.
    std::thread producer([] {
        for (int i = 0; i < 10; ++i) {
            APEX_SPAN("t.wrap", {{"i", i}});
        }
    });
    producer.join();
    setRingCapacityForTesting(16384); // restore the default
    const auto evs = eventsNamed("t.wrap");
    EXPECT_EQ(evs.size(), 4u);
    EXPECT_EQ(droppedEvents() - dropped_before, 6);
}

TEST(ChromeTrace, EmitsValidEnvelopeAndEvents)
{
    TracingScope tracing;
    std::thread worker([] {
        setLane(0);
        {
            APEX_SPAN("t.traced", {{"app", "quote\"backslash\\"}});
        }
        setLane(-1);
    });
    worker.join();
    const std::string json = chromeTraceJson();
    // Envelope.
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    // Lane metadata + the complete event with escaped args.
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"lane 0\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"t.traced\""), std::string::npos);
    EXPECT_NE(json.find("quote\\\"backslash\\\\"),
              std::string::npos);
    // No raw control characters survive escaping.
    for (char c : json)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
}

TEST(Metrics, CounterAccumulatesAndIsStableByName)
{
    Counter &c = counter("test.telemetry.counter");
    const long long before = c.value();
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), before + 42);
    // Same name, same object.
    EXPECT_EQ(&counter("test.telemetry.counter"), &c);
}

TEST(Metrics, GaugeIsLastWriteWins)
{
    Gauge &g = gauge("test.telemetry.gauge");
    g.set(2.5);
    g.set(-1.25);
    EXPECT_EQ(g.value(), -1.25);
}

TEST(Metrics, HistogramBucketsBoundsAndOverflow)
{
    Histogram &h = Registry::instance().histogram(
        "test.telemetry.hist", {1.0, 10.0, 100.0});
    ASSERT_EQ(h.bounds().size(), 3u);
    h.observe(0.5);   // <= 1        -> bucket 0
    h.observe(1.0);   // boundary    -> bucket 0
    h.observe(7.0);   // <= 10       -> bucket 1
    h.observe(99.0);  // <= 100      -> bucket 2
    h.observe(500.0); // > last      -> overflow bucket
    EXPECT_EQ(h.bucketCount(0), 2);
    EXPECT_EQ(h.bucketCount(1), 1);
    EXPECT_EQ(h.bucketCount(2), 1);
    EXPECT_EQ(h.bucketCount(3), 1); // overflow
    EXPECT_EQ(h.count(), 5);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 7.0 + 99.0 + 500.0);
}

TEST(Metrics, JsonDumpIsStableSortedAndWellFormed)
{
    counter("test.dump.zeta").add(3);
    counter("test.dump.alpha").add(1);
    gauge("test.dump.gauge").set(1.5);
    Registry::instance().histogram("test.dump.hist", {1.0, 2.0})
        .observe(1.5);
    const std::string dump = Registry::instance().jsonDump();
    // Envelope and sections.
    EXPECT_EQ(dump.front(), '{');
    EXPECT_EQ(dump.back(), '}');
    EXPECT_NE(dump.find("\"apex_metrics\":1"), std::string::npos);
    EXPECT_NE(dump.find("\"counters\":["), std::string::npos);
    EXPECT_NE(dump.find("\"gauges\":["), std::string::npos);
    EXPECT_NE(dump.find("\"histograms\":["), std::string::npos);
    // Name-sorted within a section.
    EXPECT_LT(dump.find("test.dump.alpha"),
              dump.find("test.dump.zeta"));
    // Histogram rows carry bounds/counts/sum/count.
    EXPECT_NE(dump.find("\"bounds\":[1,2]"), std::string::npos);
    EXPECT_NE(dump.find("\"counts\":["), std::string::npos);
    EXPECT_NE(dump.find("\"sum\":1.5"), std::string::npos);
    // Dumping is repeatable byte-for-byte when nothing changed.
    EXPECT_EQ(dump, Registry::instance().jsonDump());
}

TEST(Metrics, StageTimerObservesOnScopeExit)
{
    Histogram &h =
        Registry::instance().histogram("test.timer.ms", {1e9});
    const long long before = h.count();
    {
        StageTimer timer(h);
    }
    EXPECT_EQ(h.count(), before + 1);
}

TEST(Metrics, PeriodicWriterFlushesAtomicallyAndOnShutdown)
{
    const std::string path =
        testing::TempDir() + "apex_periodic_metrics.json";
    Counter &c = counter("test.periodic.flushes");
    {
        PeriodicMetricsWriter writer(path, 5.0);
        c.add(1);
        ASSERT_TRUE(writer.flushNow());
        EXPECT_GE(writer.flushCount(), 1);
        c.add(1); // Mutation after the last explicit flush ...
    } // ... is captured by the destructor's final flush.
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("test.periodic.flushes"),
              std::string::npos);
    // The temp file never survives a completed flush.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
}

/** Slurp a file's bytes, or "" when it does not exist. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Metrics, PeriodicWriterKeepsLastGoodFileAcrossFlushFailure)
{
    const std::string path =
        testing::TempDir() + "apex_metrics_flush_failure.json";
    std::filesystem::remove(path);
    Counter &failures =
        counter("apex.resource.metrics_flush_failures");
    const long long failures_before = failures.value();

    PeriodicMetricsWriter writer(path, 1e9);
    ASSERT_TRUE(writer.flushNow());
    const long long flushes_before = writer.flushCount();
    const std::string good = slurp(path);
    ASSERT_FALSE(good.empty());

    {
        apex::FaultScope fault(apex::FaultStage::kDiskFull, 1);
        EXPECT_FALSE(writer.flushNow());
    }
    // The failure is counted, the flush count is honest, and — the
    // durability contract — the previous good file is untouched:
    // observers keep reading the last complete snapshot.
    EXPECT_EQ(failures.value(), failures_before + 1);
    EXPECT_EQ(writer.flushCount(), flushes_before);
    EXPECT_EQ(slurp(path), good);
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());

    // When the disk recovers, the next flush succeeds on its own.
    EXPECT_TRUE(writer.flushNow());
    EXPECT_EQ(writer.flushCount(), flushes_before + 1);
}

TEST(Metrics, PeriodicWriterSurvivesUncreatableTmpFile)
{
    // The metrics "directory" is a regular file, so creating the tmp
    // file fails with ENOTDIR (works even when running as root,
    // unlike permission-based setups).
    const std::string blocker =
        testing::TempDir() + "apex_metrics_blocker";
    {
        std::ofstream os(blocker, std::ios::trunc);
        os << "not a directory\n";
    }
    Counter &failures =
        counter("apex.resource.metrics_flush_failures");
    const long long failures_before = failures.value();
    {
        PeriodicMetricsWriter writer(blocker + "/metrics.json", 1e9);
        EXPECT_FALSE(writer.flushNow());
        // The destructor's final flush fails too; it must not crash.
    }
    EXPECT_GE(failures.value(), failures_before + 2);
    std::filesystem::remove(blocker);
}

TEST(Metrics, PeriodicWriterSurvivesRenameFailure)
{
    // The target path is an existing directory: the tmp file writes
    // fine but the publishing rename fails.
    const std::string path =
        testing::TempDir() + "apex_metrics_renameblock";
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    Counter &failures =
        counter("apex.resource.metrics_flush_failures");
    const long long failures_before = failures.value();
    {
        PeriodicMetricsWriter writer(path, 1e9);
        EXPECT_FALSE(writer.flushNow());
        // No orphaned tmp file is left behind on the rename path.
        std::ifstream tmp(path + ".tmp");
        EXPECT_FALSE(tmp.good());
    }
    EXPECT_GE(failures.value(), failures_before + 1);
    std::filesystem::remove_all(path);
}

TEST(Metrics, SpanMacroLeavesRegistryAlone)
{
    // Spans and metrics are independent facilities: tracing state
    // must not create or mutate registry entries.
    TracingScope tracing;
    const std::string before = Registry::instance().jsonDump();
    {
        APEX_SPAN("t.registry_untouched");
    }
    collect();
    EXPECT_EQ(Registry::instance().jsonDump(), before);
}

// --------------------------------------------------------------------
// Request trace context
// --------------------------------------------------------------------

TEST(TraceId, ScopedSetRestoresOnUnwindAndNests)
{
    EXPECT_EQ(currentTraceId(), 0u);
    {
        ScopedTraceId outer;
        outer.set(7);
        EXPECT_EQ(currentTraceId(), 7u);
        {
            ScopedTraceId inner;
            inner.set(9);
            EXPECT_EQ(currentTraceId(), 9u);
            inner.set(11); // Re-arming keeps the original restore.
            EXPECT_EQ(currentTraceId(), 11u);
        }
        EXPECT_EQ(currentTraceId(), 7u);
    }
    EXPECT_EQ(currentTraceId(), 0u);
}

TEST(TraceId, SpansCarryTheThreadTraceIdAndFilter)
{
    TracingScope tracing;
    {
        ScopedTraceId trace;
        trace.set(0xfe);
        APEX_SPAN("t.traced_req");
    }
    {
        ScopedTraceId trace;
        trace.set(0xff);
        APEX_SPAN("t.other_req");
    }
    {
        APEX_SPAN("t.unscoped");
    }
    EXPECT_EQ(eventsNamed("t.traced_req").at(0).trace_id, 0xfeu);
    EXPECT_EQ(eventsNamed("t.unscoped").at(0).trace_id, 0u);

    const auto slice = eventsForTrace(0xfe);
    ASSERT_EQ(slice.size(), 1u);
    EXPECT_EQ(slice[0].name, "t.traced_req");
    EXPECT_TRUE(eventsForTrace(0xdead).empty());
}

TEST(TraceId, SetThreadTraceIdTagsAForeignThread)
{
    TracingScope tracing;
    // The forked-worker path: a thread that never unwinds installs
    // the id without RAII restoration.
    std::thread worker([] {
        setThreadTraceId(0x42);
        APEX_SPAN("t.worker_req");
    });
    worker.join();
    EXPECT_EQ(eventsNamed("t.worker_req").at(0).trace_id, 0x42u);
    EXPECT_EQ(currentTraceId(), 0u); // Only that thread was tagged.
}

TEST(TraceId, RingDropsBumpTheTraceDroppedCounter)
{
    TracingScope tracing;
    setRingCapacityForTesting(4);
    Counter &dropped = counter("apex.trace.dropped");
    const long long counter_before = dropped.value();
    const long long dropped_before = droppedEvents();
    std::thread producer([] {
        for (int i = 0; i < 10; ++i) {
            APEX_SPAN("t.drop_count", {{"i", i}});
        }
    });
    producer.join();
    setRingCapacityForTesting(16384); // restore the default
    // Span loss is surfaced as a metric, not only via the tracing
    // API, so a metrics dump alone reveals a truncated trace.
    EXPECT_EQ(droppedEvents() - dropped_before, 6);
    EXPECT_EQ(dropped.value() - counter_before, 6);
}

TEST(TraceId, CollectedCapEvictsOldestAndCounts)
{
    TracingScope tracing;
    setCollectedCap(10);
    const long long evicted_before = evictedEvents();
    for (int i = 0; i < 25; ++i) {
        APEX_SPAN("t.evict", {{"i", i}});
        collect(); // Drain each span so the ring never drops.
    }
    collect();
    EXPECT_LE(events().size(), 10u);
    EXPECT_GE(evictedEvents() - evicted_before, 15);
    // The survivors are the newest events, not the oldest.
    bool saw_last = false;
    for (const SpanEvent &ev : events())
        saw_last |= ev.args.find("\"i\":24") != std::string::npos;
    EXPECT_TRUE(saw_last);
    setCollectedCap(131072); // restore the default
}

TEST(ChromeTrace, MergedSlicesRenderOneLanePerProcess)
{
    // Pure-function check: hand-built slices, no ring involvement.
    SpanEvent client_ev;
    client_ev.name = "client.sweep";
    client_ev.ts_us = 1000.0;
    client_ev.dur_us = 50.0;
    client_ev.trace_id = 0xfe;

    SpanEvent daemon_ev = client_ev;
    daemon_ev.name = "service.execute";
    daemon_ev.ts_us = 2000.0;

    SpanEvent worker_ev = client_ev;
    worker_ev.name = "pe.evaluate";
    worker_ev.ts_us = 3000.0;
    worker_ev.lane = 1;

    std::vector<TraceProcessSlice> slices(3);
    slices[0].pid = 1;
    slices[0].process_name = "client";
    slices[0].events.push_back(client_ev);
    slices[1].pid = 2;
    slices[1].process_name = "apexd";
    slices[1].events.push_back(daemon_ev);
    slices[1].dropped = 3;
    slices[2].pid = 3;
    slices[2].process_name = "apexd workers";
    slices[2].events.push_back(worker_ev);

    const std::string json = chromeTraceJsonMerged(slices);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    // One process_name metadata lane per slice.
    EXPECT_NE(json.find("\"name\":\"process_name\",\"args\":"
                        "{\"name\":\"client\"}"),
              std::string::npos);
    EXPECT_NE(json.find("{\"name\":\"apexd\"}"), std::string::npos);
    EXPECT_NE(json.find("{\"name\":\"apexd workers\"}"),
              std::string::npos);
    // Events land under their slice's pid; the worker event under a
    // "worker 1" thread-name lane.
    EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"worker 1\""), std::string::npos);
    // Trace-id correlation is visible in the event args.
    EXPECT_NE(json.find("\"trace_id\":\"00000000000000fe\""),
              std::string::npos);
    // Each slice is rebased to its own first event (ts 0).
    EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
    // Span loss is per-process metadata, not silence.
    EXPECT_NE(json.find("\"otherData\":{\"dropped\":{\"client\":0,"
                        "\"apexd\":3,\"apexd workers\":0}}"),
              std::string::npos);
}

TEST(ChromeTrace, SingleProcessJsonReportsLossCounters)
{
    TracingScope tracing;
    {
        APEX_SPAN("t.loss_meta");
    }
    const std::string json = chromeTraceJson();
    EXPECT_NE(json.find("\"otherData\":{\"recorded\":"),
              std::string::npos);
    EXPECT_NE(json.find("\"dropped\":"), std::string::npos);
    EXPECT_NE(json.find("\"evicted\":"), std::string::npos);
}

// --------------------------------------------------------------------
// Structured event log
// --------------------------------------------------------------------

/** Read @p path as whole lines. */
std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream is(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    return lines;
}

TEST(EventLog, ParseLevelAcceptsTheDocumentedNames)
{
    eventlog::Level level;
    ASSERT_TRUE(eventlog::parseLevel("debug", &level));
    EXPECT_EQ(level, eventlog::Level::kDebug);
    ASSERT_TRUE(eventlog::parseLevel("info", &level));
    EXPECT_EQ(level, eventlog::Level::kInfo);
    ASSERT_TRUE(eventlog::parseLevel("warn", &level));
    EXPECT_EQ(level, eventlog::Level::kWarn);
    ASSERT_TRUE(eventlog::parseLevel("warning", &level));
    EXPECT_EQ(level, eventlog::Level::kWarn);
    ASSERT_TRUE(eventlog::parseLevel("error", &level));
    EXPECT_EQ(level, eventlog::Level::kError);
    EXPECT_FALSE(eventlog::parseLevel("chatty", &level));
    EXPECT_STREQ(eventlog::levelName(eventlog::Level::kWarn),
                 "warn");
}

TEST(EventLog, WritesLeveledJsonlWithTraceCorrelation)
{
    const std::string path =
        ::testing::TempDir() + "apex_eventlog_test.jsonl";
    std::filesystem::remove(path);

    eventlog::Options options;
    options.path = path;
    options.level = eventlog::Level::kWarn;
    ASSERT_TRUE(eventlog::configure(options));
    EXPECT_TRUE(eventlog::configured());

    eventlog::emit(eventlog::Level::kInfo, "cache",
                   "below threshold; dropped at the call site");
    eventlog::emit(eventlog::Level::kWarn, "service.admission",
                   "queue saturated (depth 8)", 0xfe);
    eventlog::emit(eventlog::Level::kError, "service.accept",
                   "a \"quoted\" reason\nwith a newline");
    eventlog::shutdown();
    EXPECT_FALSE(eventlog::configured());

    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].find("{\"ts_ms\":"), 0u);
    EXPECT_NE(lines[0].find("\"level\":\"warn\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"component\":\"service.admission\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"trace_id\":\"00000000000000fe\""),
              std::string::npos);
    // trace_id 0 means "no request context" and is omitted.
    EXPECT_EQ(lines[1].find("trace_id"), std::string::npos);
    // JSON stays one parseable line per event under hostile content.
    EXPECT_NE(lines[1].find("a \\\"quoted\\\" reason\\nwith"),
              std::string::npos);
    std::filesystem::remove(path);
}

TEST(EventLog, RateBoundSuppressesCountsAndSummarizes)
{
    const std::string path =
        ::testing::TempDir() + "apex_eventlog_rate_test.jsonl";
    std::filesystem::remove(path);

    eventlog::Options options;
    options.path = path;
    options.rate_window_ms = 50;
    options.rate_max_per_window = 2;
    ASSERT_TRUE(eventlog::configure(options));

    Counter &metric = counter("apex.log.suppressed");
    const long long metric_before = metric.value();
    for (int i = 0; i < 5; ++i)
        eventlog::emit(eventlog::Level::kInfo, "test",
                       "line " + std::to_string(i));
    EXPECT_EQ(metric.value() - metric_before, 3);

    // Rolling the window emits one summary naming the loss, then
    // admits new lines again.
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    eventlog::emit(eventlog::Level::kInfo, "test", "after the roll");
    eventlog::shutdown();

    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 4u); // 2 admitted + summary + 1 admitted.
    EXPECT_NE(lines[0].find("line 0"), std::string::npos);
    EXPECT_NE(lines[1].find("line 1"), std::string::npos);
    EXPECT_NE(lines[2].find("\"component\":\"eventlog\""),
              std::string::npos);
    EXPECT_NE(lines[2].find("suppressed 3 line(s)"),
              std::string::npos);
    EXPECT_NE(lines[3].find("after the roll"), std::string::npos);
    std::filesystem::remove(path);
}

} // namespace

/**
 * Self-tests of the benchmark harness: the percentile rule, span
 * self-time attribution, and the CPU / RSS / fd readers the end-to-end
 * metrics rest on.
 */
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <ctime>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "harness.hpp"

namespace perfbench {
namespace {

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(Percentiles, MedianInterpolates)
{
    const Summary s = summarize({4.0, 1.0, 3.0, 2.0});
    EXPECT_EQ(s.n, 4u);
    EXPECT_DOUBLE_EQ(s.p50, 2.5);
}

TEST(Percentiles, P90NeedsTenSamplesBeyondIt)
{
    // With n distinct samples, 9 lie beyond the p90 at n = 91 and 10 at
    // n = 92.
    const Summary few = summarize(ramp(91));
    EXPECT_FALSE(few.has_p90);
    EXPECT_NE(few.why_missing.find("n=91"), std::string::npos);
    EXPECT_NE(few.why_missing.find("leaves 9"), std::string::npos);

    const Summary enough = summarize(ramp(92));
    ASSERT_TRUE(enough.has_p90);
    EXPECT_GE(samplesAbove(ramp(92), enough.p90), kMinTail);
}

TEST(Percentiles, TiesAtTheTopHideTheP90)
{
    std::vector<double> v = ramp(200);
    for (std::size_t i = 150; i < v.size(); ++i)
        v[i] = 1000.0; // p90 lands inside the tie: nothing lies beyond.
    const Summary s = summarize(v);
    EXPECT_FALSE(s.has_p90);
    EXPECT_NE(s.why_missing.find("leaves 0"), std::string::npos);
}

TEST(Percentiles, WindowsIgnoreABurstInOneWindow)
{
    // Three windows of 100; a burst slows every sample of the first.
    std::vector<double> v;
    for (int w = 0; w < 3; ++w)
        for (double x : ramp(100))
            v.push_back(w == 0 ? 1000.0 + x : x);
    const Summary s = summarizeWindows(v);
    EXPECT_EQ(s.n, 300u);
    ASSERT_TRUE(s.has_p90);
    EXPECT_DOUBLE_EQ(s.p50, quantile(ramp(100), 0.5));
    EXPECT_DOUBLE_EQ(s.p90, quantile(ramp(100), 0.9));
    EXPECT_GT(summarize(v).p90, 1000.0);
}

TEST(Percentiles, FewSamplesMakeOneWindow)
{
    const Summary whole = summarize(ramp(150));
    const Summary windows = summarizeWindows(ramp(150));
    EXPECT_DOUBLE_EQ(windows.p50, whole.p50);
    EXPECT_DOUBLE_EQ(windows.p90, whole.p90);
    EXPECT_FALSE(summarizeWindows(ramp(91)).has_p90);
}

TEST(Percentiles, EmptySaysSo)
{
    const Summary s = summarize({});
    EXPECT_EQ(s.n, 0u);
    EXPECT_FALSE(s.has_p90);
    EXPECT_EQ(s.why_missing, "no samples");
}

SpanRecord
span(const char *name, double lo, double hi, int parent)
{
    return SpanRecord{name, lo, hi, parent};
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    const std::vector<SpanRecord> spans = {
        span("core.evaluate", 0, 10, -1),
        span("mapper.rewrite", 1, 3, 0),
        span("mapper.select", 2, 5, 0),  // overlaps its sibling
        span("cgra.place", 8, 12, 0),    // clipped to the parent
        span("runtime.cache_get", 1.5, 2.5, 1),
    };
    const std::vector<double> self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 10.0 - (4.0 + 2.0));
    EXPECT_DOUBLE_EQ(self[1], 2.0 - 1.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0);
    EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(Spans, LayerSelfTimesSumToRootCoverage)
{
    const std::vector<SpanRecord> spans = {
        span("core.build", 0, 4, -1),
        span("mining.mine", 0.5, 2, 0),
        span("merging.merge", 2, 3.5, 0),
        span("core.evaluate", 5, 9, -1),
        span("mapper.rewrite", 5, 8, 3),
    };
    const SpanTotals t = totalsOf(spans);
    double sum = 0.0;
    for (const auto &[layer, ms] : t.layer_self_ms)
        sum += ms;
    EXPECT_DOUBLE_EQ(sum, rootCoverage(spans));
    EXPECT_DOUBLE_EQ(rootCoverage(spans), 8.0);
    EXPECT_DOUBLE_EQ(t.layer_self_ms.at("core"), 1.0 + 1.0);
    EXPECT_DOUBLE_EQ(t.max_ms.at("core.build"), 4.0);
    EXPECT_EQ(layerOf("runtime.cache_get"), "runtime");
}

TEST(Spans, RecorderNestsAndCanBeOff)
{
    SpanRecorder rec(Clock::now());
    {
        ScopedSpan outer(rec, "core.build");
        ScopedSpan inner(rec, "mining.mine");
    }
    { ScopedSpan next(rec, "core.evaluate"); }
    ASSERT_EQ(rec.spans().size(), 3u);
    EXPECT_EQ(rec.spans()[0].parent, -1);
    EXPECT_EQ(rec.spans()[1].parent, 0);
    EXPECT_EQ(rec.spans()[2].parent, -1);
    EXPECT_LE(rec.spans()[1].end_ms, rec.spans()[0].end_ms);

    SpanRecorder off(Clock::now(), false);
    { ScopedSpan s(off, "core.build"); }
    EXPECT_TRUE(off.spans().empty());
}

/** Spin until this process has used @p ms more CPU. */
void
burnCpu(double ms)
{
    const std::clock_t start = std::clock();
    volatile double sink = 0.0;
    while (1e3 * static_cast<double>(std::clock() - start) /
               CLOCKS_PER_SEC <
           ms)
        sink = sink + 1.0;
}

TEST(Readers, CpuCountsSelf)
{
    const CpuTimes before = readCpu();
    burnCpu(60.0);
    EXPECT_GE(readCpu().self_ms - before.self_ms, 40.0);
}

TEST(Readers, CpuCountsReapedChildrenOnly)
{
    const CpuTimes before = readCpu();
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        burnCpu(80.0);
        ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    const CpuTimes after = readCpu();
    EXPECT_GE(after.children_ms - before.children_ms, 50.0);
    EXPECT_GE(after.total() - before.total(), 50.0);
}

TEST(Readers, PeakRssSeesTouchedMemory)
{
    const double before = peakRssMb();
    constexpr std::size_t kBytes = 96u << 20;
    auto block = std::make_unique<char[]>(kBytes);
    std::memset(block.get(), 1, kBytes);
    EXPECT_GE(peakRssMb() - before, 60.0);
    EXPECT_EQ(block[kBytes - 1], 1);
}

TEST(Readers, PeakRssResetsToTheCurrentRss)
{
    {
        constexpr std::size_t kBytes = 96u << 20;
        auto block = std::make_unique<char[]>(kBytes);
        std::memset(block.get(), 1, kBytes);
        EXPECT_EQ(block[kBytes - 1], 1);
    }
    const double high = peakRssMb();
    ASSERT_TRUE(resetPeakRss());
    EXPECT_LE(peakRssMb(), high - 60.0);
}

TEST(Readers, FdCountTracksOpenDescriptors)
{
    const int before = openFdCount();
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    EXPECT_EQ(openFdCount(), before + 2);
    ::close(fds[0]);
    ::close(fds[1]);
    EXPECT_EQ(openFdCount(), before);
}

TEST(Output, ResultLineCarriesEveryValueInFull)
{
    const std::string line =
        resultJson(true, 3, 0, {{"sweep_ms_p50", 0.1, "ms"},
                                {"setup_s", 2.0 / 3.0, "s"}});
    EXPECT_EQ(line,
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
              "\"metrics\": {\"sweep_ms_p50\": {\"value\": "
              "0.10000000000000001, \"unit\": \"ms\"}, \"setup_s\": "
              "{\"value\": 0.66666666666666663, \"unit\": \"s\"}}}");
}

TEST(Seeds, SplitMixIsDeterministic)
{
    SplitMix a(42);
    SplitMix b(42);
    SplitMix c(43);
    const std::uint64_t first = a.next();
    EXPECT_EQ(first, b.next());
    EXPECT_NE(first, c.next());
    EXPECT_LT(a.below(3), 3u);
}

} // namespace
} // namespace perfbench

#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace perfbench {

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
quantile(const std::vector<double> &sorted, double q)
{
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::size_t
samplesAbove(const std::vector<double> &sorted, double value)
{
    return static_cast<std::size_t>(
        sorted.end() -
        std::upper_bound(sorted.begin(), sorted.end(), value));
}

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty()) {
        s.why_missing = "no samples";
        return s;
    }
    std::sort(samples.begin(), samples.end());
    s.p50 = quantile(samples, 0.5);
    const double p90 = quantile(samples, 0.9);
    const std::size_t beyond = samplesAbove(samples, p90);
    if (beyond >= kMinTail) {
        s.has_p90 = true;
        s.p90 = p90;
    } else {
        s.why_missing = "p90 needs " + std::to_string(kMinTail) +
                        " samples beyond it; n=" +
                        std::to_string(s.n) + " leaves " +
                        std::to_string(beyond);
    }
    return s;
}

Summary
summarizeWindows(const std::vector<double> &in_time_order)
{
    const std::size_t n = in_time_order.size();
    const std::size_t k =
        std::clamp<std::size_t>(n / kWindowSamples, 1, kMaxWindows);
    Summary out;
    out.n = n;
    out.has_p90 = true;
    std::vector<double> p50s;
    std::vector<double> p90s;
    for (std::size_t w = 0; w < k; ++w) {
        const Summary s = summarize(
            {in_time_order.begin() + static_cast<long>(w * n / k),
             in_time_order.begin() + static_cast<long>((w + 1) * n / k)});
        p50s.push_back(s.p50);
        p90s.push_back(s.p90);
        if (!s.has_p90 && out.has_p90) {
            out.has_p90 = false;
            out.why_missing = s.why_missing;
        }
    }
    const auto mid = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return quantile(v, 0.5);
    };
    out.p50 = n == 0 ? 0.0 : mid(p50s);
    out.p90 = out.has_p90 ? mid(p90s) : 0.0;
    return out;
}

namespace {

double
tvMs(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
}

} // namespace

CpuTimes
readCpu()
{
    CpuTimes t;
    rusage self{};
    rusage children{};
    if (::getrusage(RUSAGE_SELF, &self) == 0)
        t.self_ms = tvMs(self.ru_utime) + tvMs(self.ru_stime);
    if (::getrusage(RUSAGE_CHILDREN, &children) == 0)
        t.children_ms = tvMs(children.ru_utime) + tvMs(children.ru_stime);
    return t;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // KiB
    return 0.0;
}

bool
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

int
openFdCount()
{
    int n = 0;
    std::error_code ec;
    for (auto it = std::filesystem::directory_iterator("/proc/self/fd", ec);
         !ec && it != std::filesystem::directory_iterator();
         it.increment(ec))
        ++n;
    // The iterator's own directory fd is one of the entries.
    return n - 1;
}

int
SpanRecorder::begin(const std::string &name)
{
    if (!enabled_)
        return -1;
    SpanRecord rec;
    rec.name = name;
    rec.start_ms = msSince(origin_);
    rec.end_ms = rec.start_ms;
    rec.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(rec));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanRecorder::end(int id)
{
    if (id < 0)
        return;
    spans_[id].end_ms = msSince(origin_);
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

namespace {

/** Union length of intervals (sorted in place). */
double
unionLength(std::vector<std::pair<double, double>> &iv)
{
    std::sort(iv.begin(), iv.end());
    double total = 0.0;
    double cur_lo = 0.0;
    double cur_hi = 0.0;
    bool open = false;
    for (const auto &[lo, hi] : iv) {
        if (!open || lo > cur_hi) {
            if (open)
                total += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        } else {
            cur_hi = std::max(cur_hi, hi);
        }
    }
    if (open)
        total += cur_hi - cur_lo;
    return total;
}

} // namespace

std::vector<double>
selfTimes(const std::vector<SpanRecord> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const SpanRecord &s : spans) {
        if (s.parent < 0)
            continue;
        const SpanRecord &p = spans[s.parent];
        // Clip to the parent: a child cannot cover time outside it.
        const double lo = std::max(s.start_ms, p.start_ms);
        const double hi = std::min(s.end_ms, p.end_ms);
        if (hi > lo)
            children[s.parent].push_back({lo, hi});
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = (spans[i].end_ms - spans[i].start_ms) -
                  unionLength(children[i]);
    return self;
}

double
rootCoverage(const std::vector<SpanRecord> &spans)
{
    std::vector<std::pair<double, double>> roots;
    for (const SpanRecord &s : spans)
        if (s.parent < 0)
            roots.push_back({s.start_ms, s.end_ms});
    return unionLength(roots);
}

std::string
layerOf(const std::string &span_name)
{
    return span_name.substr(0, span_name.find('.'));
}

SpanTotals
totalsOf(const std::vector<SpanRecord> &spans)
{
    SpanTotals t;
    const std::vector<double> self = selfTimes(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        const double dur = s.end_ms - s.start_ms;
        t.inclusive_ms[s.name] += dur;
        t.max_ms[s.name] = std::max(t.max_ms[s.name], dur);
        t.count[s.name] += 1;
        t.layer_self_ms[layerOf(s.name)] += self[i];
    }
    return t;
}

std::uint64_t
SplitMix::next()
{
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::string
resultJson(bool correct, long attempted, long failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        // %.17g round-trips the double: the value is printed in full.
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
               buf + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench

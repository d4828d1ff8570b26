#ifndef APEX_PERFBENCH_HARNESS_H_
#define APEX_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/**
 * @file
 * Measurement primitives of the repository benchmark: the percentile
 * rule, process CPU and peak-RSS readers, and an in-memory span
 * recorder with self-time attribution.  Nothing here links the APEX
 * libraries, so the self-tests exercise it in isolation.
 */

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since @p t0. */
double msSince(Clock::time_point t0);

/** Linear-interpolated quantile of @p sorted (ascending, non-empty). */
double quantile(const std::vector<double> &sorted, double q);

/** Samples of @p sorted strictly greater than @p value. */
std::size_t samplesAbove(const std::vector<double> &sorted, double value);

/**
 * Median and 90th percentile of one timing.  The p90 is reported only
 * when at least kMinTail samples lie beyond it; otherwise has_p90 is
 * false and why_missing says how many samples there were.
 */
struct Summary {
    std::size_t n = 0;
    double p50 = 0.0;
    bool has_p90 = false;
    double p90 = 0.0;
    std::string why_missing;
};

inline constexpr std::size_t kMinTail = 10;

Summary summarize(std::vector<double> samples);

/** Samples per window of summarizeWindows(): enough for a p90. */
inline constexpr std::size_t kWindowSamples = 100;
inline constexpr std::size_t kMaxWindows = 5;

/**
 * Summary of @p in_time_order split into consecutive windows of at
 * least kWindowSamples samples (at most kMaxWindows; one window when
 * there are fewer samples).  The p50 and p90 are the medians of the
 * windows' own p50 and p90, so host interference that covers fewer
 * than half of the windows does not move them.  The p90 is reported
 * only when every window meets the tail rule.
 */
Summary summarizeWindows(const std::vector<double> &in_time_order);

/** Process CPU time in ms (user + system).  children_ms covers only
 * children that have been reaped (getrusage RUSAGE_CHILDREN). */
struct CpuTimes {
    double self_ms = 0.0;
    double children_ms = 0.0;
    double total() const { return self_ms + children_ms; }
};

CpuTimes readCpu();

/** Peak resident set size of this process in MiB since it started or
 * since the last resetPeakRss() (VmHWM in /proc/self/status). */
double peakRssMb();

/** Restart peak-RSS accounting at the current RSS (/proc/self/clear_refs);
 * false when the kernel refuses. */
bool resetPeakRss();

/** Open file descriptors of this process (/proc/self/fd entries). */
int openFdCount();

/** One recorded span: [start_ms, end_ms] on a lane, child of @p parent
 * (-1 for a root). */
struct SpanRecord {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
};

/**
 * Spans of one lane (one thread), kept in memory until the run ends.
 * Not thread-safe: give each driver thread its own recorder.  When
 * disabled, begin/end record nothing, so the same code path runs
 * traced and untraced.
 */
class SpanRecorder {
  public:
    explicit SpanRecorder(Clock::time_point origin, bool enabled = true)
        : origin_(origin), enabled_(enabled) {}

    int begin(const std::string &name);
    void end(int id);

    const std::vector<SpanRecord> &spans() const { return spans_; }

  private:
    Clock::time_point origin_;
    bool enabled_;
    std::vector<SpanRecord> spans_;
    std::vector<int> open_; ///< Stack of open span ids.
};

/** RAII span on a recorder. */
class ScopedSpan {
  public:
    ScopedSpan(SpanRecorder &rec, const std::string &name)
        : rec_(rec), id_(rec.begin(name)) {}
    ~ScopedSpan() { rec_.end(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    int id_;
};

/** Self time of every span: its duration minus the part of it that its
 * children's intervals cover (overlapping children counted once). */
std::vector<double> selfTimes(const std::vector<SpanRecord> &spans);

/** Length of the union of the root spans' intervals. */
double rootCoverage(const std::vector<SpanRecord> &spans);

/** The layer of a span name: the part before the first '.'. */
std::string layerOf(const std::string &span_name);

/** Per-name totals of a span list. */
struct SpanTotals {
    std::map<std::string, double> inclusive_ms; ///< By span name.
    std::map<std::string, double> max_ms;       ///< Longest instance.
    std::map<std::string, long> count;
    std::map<std::string, double> layer_self_ms; ///< By layer.
};

SpanTotals totalsOf(const std::vector<SpanRecord> &spans);

/** Deterministic 64-bit generator (splitmix64) for seeded inputs. */
class SplitMix {
  public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

/** One metric of the result line. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The benchmark's last stdout line: a JSON object with correct,
 * attempted, failed and metrics (every value printed in full). */
std::string resultJson(bool correct, long attempted, long failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // APEX_PERFBENCH_HARNESS_H_

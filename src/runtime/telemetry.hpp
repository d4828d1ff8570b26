#ifndef APEX_RUNTIME_TELEMETRY_H_
#define APEX_RUNTIME_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

/**
 * @file
 * Process-wide telemetry for the DSE pipeline: structured spans and a
 * unified metrics registry.
 *
 * Two independent facilities share this header:
 *
 *  - **Spans** (tracing): `APEX_SPAN("route", {{"app", name}})`
 *    opens an RAII span that records (name, args, wall interval,
 *    worker lane, nesting depth) when it closes.  Span events land in
 *    a lock-free single-producer ring buffer owned by the emitting
 *    thread; the collector (driver thread) drains every ring with
 *    collect() and exports Chrome-trace-event / Perfetto-compatible
 *    JSON via chromeTraceJson().  Tracing is **off by default**: the
 *    entire disabled path of APEX_SPAN is one relaxed atomic load and
 *    a branch — no allocation, no locks, no clock reads — so
 *    instrumented hot paths cost nothing unless `--trace` is given.
 *
 *  - **Metrics** (always on): named monotonic counters, gauges and
 *    fixed-bucket histograms in a process-wide Registry, dumped as
 *    stable JSON (`--metrics-out`).  These replace the ad-hoc
 *    per-subsystem counters (cache stats, pool stats, sweep runtime
 *    stats); subsystems that expose per-instance stats snapshot the
 *    global counters at construction and report deltas.  Metric
 *    names follow `apex.<area>.<name>` (see DESIGN.md Sec. 7d).
 *
 * Threading contract: span emission and metric updates are safe from
 * any thread (TSan-clean under the work-stealing pool).  collect(),
 * events(), chromeTraceJson() and resetTracingForTesting() are
 * driver-thread APIs — call them from one thread at a time.  The
 * internal locks are fork-tolerant spinlocks reset in the child via
 * pthread_atfork, so the crash/durability fault stages (fork +
 * SIGKILL) cannot deadlock telemetry in the child process.
 */

namespace apex::telemetry {

// --------------------------------------------------------------------
// Tracing enable flag (the one atomic the disabled path touches)
// --------------------------------------------------------------------

namespace internal {
extern std::atomic<bool> g_tracing_enabled;
} // namespace internal

/** True when span tracing is on (off by default). */
inline bool
tracingEnabled()
{
    return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}

/** Turn span tracing on or off (e.g. from `apexc ... --trace`). */
void setTracingEnabled(bool on);

// --------------------------------------------------------------------
// Thread attribution
// --------------------------------------------------------------------

/** Tag the calling thread as worker lane @p lane of the pool (-1 =
 * not a pool worker; the sweep's participating caller).  Spans record
 * the current lane so traces show pool utilization per lane. */
void setLane(int lane);

/**
 * Scoped (app, variant) attribution: while alive, every span the
 * calling thread opens carries this cell identity, which is what the
 * per-cell stage-time breakdown in ExplorationReport groups by.
 * Default-constructed it does nothing; set() arms it (callers gate
 * the string build on tracingEnabled() to keep the disabled path
 * allocation-free).
 */
class ScopedCell {
  public:
    ScopedCell() = default;
    ~ScopedCell();

    ScopedCell(const ScopedCell &) = delete;
    ScopedCell &operator=(const ScopedCell &) = delete;

    /** Install @p cell as the thread's span scope until destruction. */
    void set(std::string cell);

  private:
    bool active_ = false;
    std::string prev_;
};

// --------------------------------------------------------------------
// Request trace context
// --------------------------------------------------------------------

/**
 * Scoped request attribution: while alive, every span the calling
 * thread opens carries this trace id, which is what ties one client
 * request's spans together across the client, the daemon's executor
 * threads, and forked worker processes (DESIGN.md Sec. 7i).  Mirrors
 * ScopedCell: default-constructed it does nothing; set() arms it and
 * the destructor restores the previous id, so nested requests (or a
 * request running inside an instrumented caller) unwind correctly.
 */
class ScopedTraceId {
  public:
    ScopedTraceId() = default;
    ~ScopedTraceId();

    ScopedTraceId(const ScopedTraceId &) = delete;
    ScopedTraceId &operator=(const ScopedTraceId &) = delete;

    /** Install @p trace_id as the thread's trace id until destruction. */
    void set(std::uint64_t trace_id);

  private:
    bool active_ = false;
    std::uint64_t prev_ = 0;
};

/** Unconditionally set the calling thread's trace id (no restore).
 * For contexts that never unwind — a forked worker child installs the
 * dispatched task's trace id before running the handler and exits via
 * _Exit(), so RAII restoration would never run anyway. */
void setThreadTraceId(std::uint64_t trace_id);

/** Trace id spans opened by the calling thread will carry (0 = none). */
std::uint64_t currentTraceId();

// --------------------------------------------------------------------
// Spans
// --------------------------------------------------------------------

/** One key plus a pre-rendered JSON value for span args. */
struct SpanArg {
    SpanArg(std::string_view k, std::string_view v);
    SpanArg(std::string_view k, const char *v);
    SpanArg(std::string_view k, const std::string &v);
    SpanArg(std::string_view k, int v);
    SpanArg(std::string_view k, long v);
    SpanArg(std::string_view k, long long v);
    SpanArg(std::string_view k, double v);

    std::string key;
    std::string json_value; ///< Rendered JSON literal.
};

/** RAII span; use via APEX_SPAN, or begin() directly. */
class Span {
  public:
    Span() = default;
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void begin(std::string_view name);
    void begin(std::string_view name,
               std::initializer_list<SpanArg> args);

  private:
    void end();

    bool active_ = false;
    int depth_ = 0;
    std::uint64_t t0_ns_ = 0;
    std::string name_;
    std::string scope_;
    std::string args_; ///< `"k":v,...` fragment (may be empty).
};

#define APEX_TELEMETRY_CAT2(a, b) a##b
#define APEX_TELEMETRY_CAT(a, b) APEX_TELEMETRY_CAT2(a, b)

/**
 * Open a span for the rest of the enclosing scope.  When tracing is
 * disabled this is one atomic load + branch: the argument expressions
 * are not evaluated and nothing is allocated.
 *
 *     APEX_SPAN("route");
 *     APEX_SPAN("evaluate", {{"app", app.name}, {"level", 2}});
 */
#define APEX_SPAN(...)                                                \
    ::apex::telemetry::Span APEX_TELEMETRY_CAT(apex_span_,            \
                                               __LINE__);             \
    if (::apex::telemetry::tracingEnabled())                          \
    APEX_TELEMETRY_CAT(apex_span_, __LINE__).begin(__VA_ARGS__)

/** One recorded span, as drained by the collector. */
struct SpanEvent {
    std::string name;
    std::string scope; ///< ScopedCell at begin() ("" when none).
    std::string args;  ///< Rendered `"k":v,...` fragment.
    double ts_us = 0.0;
    double dur_us = 0.0;
    int lane = -1;
    std::uint64_t thread_ord = 0; ///< Stable per-thread ordinal.
    int depth = 0;                ///< Span nesting depth at begin().
    std::uint64_t trace_id = 0;   ///< Owning request (0 = unscoped).
};

/** Drain every thread's ring into the process event store. */
void collect();

/** Events accumulated by collect() so far (driver thread only). */
const std::vector<SpanEvent> &events();

/** Spans recorded (ring pushes) since start/reset. */
long long spansRecorded();

/** Spans dropped because a ring was full (never blocks producers). */
long long droppedEvents();

/** Collected events evicted because the process event store hit its
 * cap (long-running daemons bound memory; see setCollectedCap). */
long long evictedEvents();

/** collect() + copy of every collected event carrying @p trace_id.
 * Same single-collector contract as collect(): in the daemon only the
 * io thread calls this, when serving a `trace` request. */
std::vector<SpanEvent> eventsForTrace(std::uint64_t trace_id);

/** Cap on events retained by collect() (oldest evicted beyond it);
 * bounds daemon memory when tracing stays on across many requests. */
void setCollectedCap(std::size_t cap);

/** collect() + render Chrome trace-event JSON (chrome://tracing,
 * Perfetto).  Worker lanes appear as tids with thread_name metadata.
 * otherData carries recorded/dropped/evicted so a truncated trace is
 * detectable instead of silently incomplete. */
std::string chromeTraceJson();

/**
 * One process's slice of a merged multi-process trace: the events it
 * contributed, the Chrome pid lane to render them under, and how many
 * spans that process dropped (ring-full) while recording them.
 */
struct TraceProcessSlice {
    int pid = 1;
    std::string process_name;
    std::vector<SpanEvent> events;
    long long dropped = 0;
};

/**
 * Render several processes' span slices as one Chrome-trace file with
 * a `process_name` metadata lane per slice (client / apexd / apexd
 * workers).  Each slice's timestamps are rebased so it starts at 0 —
 * the processes' steady clocks share no epoch, so absolute alignment
 * across lanes is not meaningful and is not implied.  Pure function
 * of its input: does not touch the calling process's rings.
 */
std::string
chromeTraceJsonMerged(const std::vector<TraceProcessSlice> &slices);

/** Clear collected events and the recorded/dropped counters. */
void resetTracingForTesting();

/** Ring capacity (events) for threads that have not traced yet; lets
 * tests exercise wrap behavior with a tiny ring. */
void setRingCapacityForTesting(std::size_t capacity);

// --------------------------------------------------------------------
// Metrics registry
// --------------------------------------------------------------------

/** Monotonic counter. */
class Counter {
  public:
    void add(long long delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    long long value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    std::atomic<long long> value_{0};
};

/** Last-write-wins gauge. */
class Gauge {
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    std::atomic<double> value_{0.0};
};

/** Fixed-bucket histogram: counts per upper bound + an overflow
 * bucket, plus sum and count (so bench rows can report per-stage
 * totals without draining a trace). */
class Histogram {
  public:
    void observe(double v);

    long long count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const;
    /** Bucket @p i counts observations <= bounds()[i]; the final
     * index (bounds().size()) is the overflow bucket. */
    long long bucketCount(std::size_t i) const;
    const std::vector<double> &bounds() const { return bounds_; }

  private:
    friend class Registry;
    explicit Histogram(std::vector<double> bounds);

    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<long long>[]> buckets_;
    std::atomic<long long> count_{0};
    std::atomic<std::uint64_t> sum_bits_{0}; ///< double, CAS-added.
};

/** Default latency buckets in milliseconds (50us .. 10s). */
const std::vector<double> &defaultLatencyBucketsMs();

/**
 * Process-wide metrics registry.  Lookup registers on first use and
 * returns a stable reference; hot paths cache it in a function-local
 * static.  jsonDump() is stable: entries sorted by name, fixed field
 * order, fixed float formatting.
 */
class Registry {
  public:
    static Registry &instance();

    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    Histogram &histogram(std::string_view name,
                         const std::vector<double> &bounds =
                             defaultLatencyBucketsMs());

    /** Stable JSON dump of every registered metric. */
    std::string jsonDump() const;

    /** Zero every value (registrations survive). */
    void resetForTesting();

  private:
    Registry() = default;
    struct Impl;
    Impl &impl() const;
};

/** Shorthands for the common "static local" lookup pattern. */
inline Counter &
counter(std::string_view name)
{
    return Registry::instance().counter(name);
}
inline Gauge &
gauge(std::string_view name)
{
    return Registry::instance().gauge(name);
}
inline Histogram &
histogram(std::string_view name)
{
    return Registry::instance().histogram(name);
}

/** RAII stage timer: observes elapsed milliseconds into a histogram
 * at scope exit.  Always on (metrics are not gated on tracing). */
class StageTimer {
  public:
    explicit StageTimer(Histogram &h);
    ~StageTimer();

    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;

  private:
    Histogram &histogram_;
    std::uint64_t t0_ns_;
};

/** Nanoseconds since the process telemetry origin (steady clock). */
std::uint64_t monotonicNanos();

} // namespace apex::telemetry

#endif // APEX_RUNTIME_TELEMETRY_H_

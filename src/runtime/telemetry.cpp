#include "runtime/telemetry.hpp"

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>

namespace apex::telemetry {

namespace internal {
std::atomic<bool> g_tracing_enabled{false};
} // namespace internal

namespace {

// --------------------------------------------------------------------
// Fork-tolerant spinlock.  std::mutex held across fork() by another
// thread deadlocks the child; the durability fault stage forks while
// pool workers may be emitting spans.  A spinlock can simply be
// re-initialized in the pthread_atfork child handler.
// --------------------------------------------------------------------

class SpinLock {
  public:
    void lock()
    {
        while (flag_.exchange(true, std::memory_order_acquire)) {
            // Spin; critical sections below are a few instructions.
        }
    }
    void unlock() { flag_.store(false, std::memory_order_release); }
    void resetAfterFork()
    {
        flag_.store(false, std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> flag_{false};
};

class SpinGuard {
  public:
    explicit SpinGuard(SpinLock &l) : lock_(l) { lock_.lock(); }
    ~SpinGuard() { lock_.unlock(); }

  private:
    SpinLock &lock_;
};

// --------------------------------------------------------------------
// Clock
// --------------------------------------------------------------------

std::chrono::steady_clock::time_point
processOrigin()
{
    static const std::chrono::steady_clock::time_point origin =
        std::chrono::steady_clock::now();
    return origin;
}

// --------------------------------------------------------------------
// SPSC event ring.  The owning thread pushes; the collector drains
// under the global registration lock.  head_ (producer) and tail_
// (consumer) are monotonically increasing event indices; the slot for
// index i is i % capacity.  push() publishes the slot write with a
// release store of head_; drain() acquires head_ before reading
// slots, and push() acquires tail_ before reusing them, so slot
// accesses never race.
// --------------------------------------------------------------------

struct Ring {
    explicit Ring(std::size_t capacity) : slots(capacity) {}

    std::vector<SpanEvent> slots;
    std::atomic<std::uint64_t> head{0}; ///< Next index to write.
    std::atomic<std::uint64_t> tail{0}; ///< Next index to read.

    /** Producer side; returns false (drop) when full. */
    bool push(SpanEvent &&ev)
    {
        const std::uint64_t h = head.load(std::memory_order_relaxed);
        const std::uint64_t t = tail.load(std::memory_order_acquire);
        if (h - t >= slots.size())
            return false;
        slots[h % slots.size()] = std::move(ev);
        head.store(h + 1, std::memory_order_release);
        return true;
    }

    /** Consumer side; appends everything available to @p out. */
    void drain(std::vector<SpanEvent> *out)
    {
        const std::uint64_t h = head.load(std::memory_order_acquire);
        std::uint64_t t = tail.load(std::memory_order_relaxed);
        while (t < h) {
            out->push_back(std::move(slots[t % slots.size()]));
            ++t;
        }
        tail.store(t, std::memory_order_release);
    }
};

// --------------------------------------------------------------------
// Global tracing state
// --------------------------------------------------------------------

struct TracingGlobal {
    SpinLock lock; ///< Guards rings + collected + next_thread_ord.
    std::vector<std::shared_ptr<Ring>> rings;
    std::vector<SpanEvent> collected;
    std::uint64_t next_thread_ord = 0;
    std::atomic<long long> recorded{0};
    std::atomic<long long> dropped{0};
    std::atomic<long long> evicted{0};
    std::atomic<std::size_t> ring_capacity{16384};
    // Oldest-first eviction bound on `collected`: a daemon that keeps
    // tracing on across requests must not grow without limit.
    std::atomic<std::size_t> collected_cap{131072};
};

TracingGlobal &
tracingGlobal()
{
    static TracingGlobal *g = new TracingGlobal();
    return *g;
}

// --------------------------------------------------------------------
// Per-thread state.  The ring is shared_ptr'd so the global keeps it
// alive (and drainable) after the owning thread exits.
// --------------------------------------------------------------------

struct ThreadState {
    std::shared_ptr<Ring> ring;
    std::uint64_t ord = 0;
    int lane = -1;
    int depth = 0;
    std::string cell;
    std::uint64_t trace_id = 0;
};

ThreadState &
threadState()
{
    thread_local ThreadState state;
    return state;
}

Ring &
threadRing(ThreadState &state)
{
    if (!state.ring) {
        TracingGlobal &g = tracingGlobal();
        auto ring = std::make_shared<Ring>(
            g.ring_capacity.load(std::memory_order_relaxed));
        SpinGuard guard(g.lock);
        state.ord = g.next_thread_ord++;
        g.rings.push_back(ring);
        state.ring = std::move(ring);
    }
    return *state.ring;
}

} // namespace

// --------------------------------------------------------------------
// JSON helpers
// --------------------------------------------------------------------

void
appendJsonEscaped(std::string *out, std::string_view s)
{
    for (char c : s) {
        switch (c) {
        case '"':
            *out += "\\\"";
            break;
        case '\\':
            *out += "\\\\";
            break;
        case '\n':
            *out += "\\n";
            break;
        case '\r':
            *out += "\\r";
            break;
        case '\t':
            *out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                *out += buf;
            } else {
                *out += c;
            }
        }
    }
}

std::string
jsonString(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    appendJsonEscaped(&out, s);
    out += '"';
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

namespace {

/** Fixed-point microseconds: %g would round late timestamps in a
 * long trace to >1us granularity, which misorders adjacent spans in
 * the viewer. */
std::string
jsonMicros(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return buf;
}

// Set when the registry Impl is first created so the atfork child
// handler can reset its lock without access to the private Impl.
std::atomic<SpinLock *> g_registry_lock{nullptr};

} // namespace

// --------------------------------------------------------------------
// Tracing controls
// --------------------------------------------------------------------

void
setTracingEnabled(bool on)
{
    internal::g_tracing_enabled.store(on, std::memory_order_relaxed);
}

void
setLane(int lane)
{
    threadState().lane = lane;
}

ScopedCell::~ScopedCell()
{
    if (active_)
        threadState().cell = std::move(prev_);
}

void
ScopedCell::set(std::string cell)
{
    ThreadState &state = threadState();
    if (!active_) {
        active_ = true;
        prev_ = std::move(state.cell);
    }
    state.cell = std::move(cell);
}

ScopedTraceId::~ScopedTraceId()
{
    if (active_)
        threadState().trace_id = prev_;
}

void
ScopedTraceId::set(std::uint64_t trace_id)
{
    ThreadState &state = threadState();
    if (!active_) {
        active_ = true;
        prev_ = state.trace_id;
    }
    state.trace_id = trace_id;
}

void
setThreadTraceId(std::uint64_t trace_id)
{
    threadState().trace_id = trace_id;
}

std::uint64_t
currentTraceId()
{
    return threadState().trace_id;
}

// --------------------------------------------------------------------
// Spans
// --------------------------------------------------------------------

SpanArg::SpanArg(std::string_view k, std::string_view v)
    : key(k), json_value(jsonString(v))
{
}
SpanArg::SpanArg(std::string_view k, const char *v)
    : SpanArg(k, std::string_view(v))
{
}
SpanArg::SpanArg(std::string_view k, const std::string &v)
    : SpanArg(k, std::string_view(v))
{
}
SpanArg::SpanArg(std::string_view k, int v)
    : key(k), json_value(std::to_string(v))
{
}
SpanArg::SpanArg(std::string_view k, long v)
    : key(k), json_value(std::to_string(v))
{
}
SpanArg::SpanArg(std::string_view k, long long v)
    : key(k), json_value(std::to_string(v))
{
}
SpanArg::SpanArg(std::string_view k, double v)
    : key(k), json_value(jsonNumber(v))
{
}

void
Span::begin(std::string_view name)
{
    ThreadState &state = threadState();
    active_ = true;
    name_.assign(name);
    scope_ = state.cell;
    depth_ = state.depth++;
    t0_ns_ = monotonicNanos();
}

void
Span::begin(std::string_view name,
            std::initializer_list<SpanArg> args)
{
    for (const SpanArg &arg : args) {
        if (!args_.empty())
            args_ += ',';
        args_ += jsonString(arg.key);
        args_ += ':';
        args_ += arg.json_value;
    }
    begin(name);
}

Span::~Span()
{
    if (active_)
        end();
}

void
Span::end()
{
    const std::uint64_t t1_ns = monotonicNanos();
    ThreadState &state = threadState();
    --state.depth;

    SpanEvent ev;
    ev.name = std::move(name_);
    ev.scope = std::move(scope_);
    ev.args = std::move(args_);
    ev.ts_us = static_cast<double>(t0_ns_) / 1e3;
    ev.dur_us = static_cast<double>(t1_ns - t0_ns_) / 1e3;
    ev.lane = state.lane;
    ev.depth = depth_;
    ev.trace_id = state.trace_id;

    TracingGlobal &g = tracingGlobal();
    Ring &ring = threadRing(state);
    ev.thread_ord = state.ord;
    if (ring.push(std::move(ev))) {
        g.recorded.fetch_add(1, std::memory_order_relaxed);
    } else {
        g.dropped.fetch_add(1, std::memory_order_relaxed);
        // Mirror ring drops into the always-on registry so a metrics
        // dump reveals truncated traces without draining the rings.
        static Counter &dropped = counter("apex.trace.dropped");
        dropped.add(1);
    }
}

// --------------------------------------------------------------------
// Collector
// --------------------------------------------------------------------

void
collect()
{
    TracingGlobal &g = tracingGlobal();
    SpinGuard guard(g.lock);
    for (const std::shared_ptr<Ring> &ring : g.rings)
        ring->drain(&g.collected);
    // Bound the retained store: a daemon traces indefinitely, and an
    // unbounded `collected` would be a slow leak.  Evict oldest-first
    // and count it, so served trace slices can report the loss.
    const std::size_t cap =
        g.collected_cap.load(std::memory_order_relaxed);
    if (g.collected.size() > cap) {
        const std::size_t excess = g.collected.size() - cap;
        g.collected.erase(g.collected.begin(),
                          g.collected.begin() +
                              static_cast<std::ptrdiff_t>(excess));
        g.evicted.fetch_add(static_cast<long long>(excess),
                            std::memory_order_relaxed);
    }
}

const std::vector<SpanEvent> &
events()
{
    return tracingGlobal().collected;
}

long long
spansRecorded()
{
    return tracingGlobal().recorded.load(std::memory_order_relaxed);
}

long long
droppedEvents()
{
    return tracingGlobal().dropped.load(std::memory_order_relaxed);
}

long long
evictedEvents()
{
    return tracingGlobal().evicted.load(std::memory_order_relaxed);
}

std::vector<SpanEvent>
eventsForTrace(std::uint64_t trace_id)
{
    collect();
    TracingGlobal &g = tracingGlobal();
    SpinGuard guard(g.lock);
    std::vector<SpanEvent> out;
    for (const SpanEvent &ev : g.collected)
        if (ev.trace_id == trace_id)
            out.push_back(ev);
    return out;
}

void
setCollectedCap(std::size_t cap)
{
    tracingGlobal().collected_cap.store(cap == 0 ? 1 : cap,
                                        std::memory_order_relaxed);
}

void
resetTracingForTesting()
{
    TracingGlobal &g = tracingGlobal();
    collect();
    SpinGuard guard(g.lock);
    g.collected.clear();
    g.recorded.store(0, std::memory_order_relaxed);
    g.dropped.store(0, std::memory_order_relaxed);
    g.evicted.store(0, std::memory_order_relaxed);
}

void
setRingCapacityForTesting(std::size_t capacity)
{
    tracingGlobal().ring_capacity.store(
        capacity == 0 ? 1 : capacity, std::memory_order_relaxed);
}

namespace {

// One Chrome tid per emitting context: worker lanes are their lane
// id; non-pool threads get 1000 + thread ordinal so they sort after
// the lanes in the viewer.
long long
tidFor(const SpanEvent &ev)
{
    if (ev.lane >= 0)
        return ev.lane;
    return 1000 + static_cast<long long>(ev.thread_ord);
}

std::string
tidName(const SpanEvent &ev)
{
    return ev.lane >= 0 ? "lane " + std::to_string(ev.lane)
                        : "thread " + std::to_string(ev.thread_ord);
}

/** Render one complete ("X") span event.  @p ts_base_us is
 * subtracted from the timestamp (0 for single-process traces). */
void
appendSpanJson(std::string *out, int pid, const SpanEvent &ev,
               double ts_base_us)
{
    *out += "{\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
            ",\"tid\":" + std::to_string(tidFor(ev)) + ",\"name\":" +
            jsonString(ev.name) + ",\"cat\":\"apex\",\"ts\":" +
            jsonMicros(ev.ts_us - ts_base_us) + ",\"dur\":" +
            jsonMicros(ev.dur_us) + ",\"args\":{";
    bool first_arg = true;
    if (!ev.scope.empty()) {
        *out += "\"cell\":" + jsonString(ev.scope);
        first_arg = false;
    }
    if (!ev.args.empty()) {
        if (!first_arg)
            *out += ',';
        *out += ev.args;
        first_arg = false;
    }
    if (ev.trace_id != 0) {
        if (!first_arg)
            *out += ',';
        char buf[32];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(ev.trace_id));
        *out += "\"trace_id\":\"";
        *out += buf;
        *out += '"';
        first_arg = false;
    }
    if (!first_arg)
        *out += ',';
    *out += "\"depth\":" + std::to_string(ev.depth) + "}}";
}

/** thread_name metadata events for every tid present in @p sorted. */
void
appendThreadNames(std::string *out, bool *first, int pid,
                  const std::vector<const SpanEvent *> &sorted,
                  const char *lane_label)
{
    std::map<long long, std::string> tid_names;
    for (const SpanEvent *ev : sorted) {
        const long long tid = tidFor(*ev);
        if (tid_names.count(tid))
            continue;
        tid_names[tid] =
            ev->lane >= 0
                ? std::string(lane_label) + " " +
                      std::to_string(ev->lane)
                : tidName(*ev);
    }
    for (const auto &[tid, name] : tid_names) {
        if (!*first)
            *out += ',';
        *first = false;
        *out += "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
                ",\"tid\":" + std::to_string(tid) +
                ",\"name\":\"thread_name\",\"args\":{\"name\":" +
                jsonString(name) + "}}";
    }
}

std::vector<const SpanEvent *>
sortedByTs(const std::vector<SpanEvent> &events)
{
    std::vector<const SpanEvent *> sorted;
    sorted.reserve(events.size());
    for (const SpanEvent &ev : events)
        sorted.push_back(&ev);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const SpanEvent *a, const SpanEvent *b) {
                         return a->ts_us < b->ts_us;
                     });
    return sorted;
}

} // namespace

std::string
chromeTraceJson()
{
    collect();
    TracingGlobal &g = tracingGlobal();

    std::vector<const SpanEvent *> sorted;
    {
        SpinGuard guard(g.lock);
        sorted.reserve(g.collected.size());
        for (const SpanEvent &ev : g.collected)
            sorted.push_back(&ev);
    }
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const SpanEvent *a, const SpanEvent *b) {
                         return a->ts_us < b->ts_us;
                     });

    std::string out;
    out.reserve(256 + sorted.size() * 160);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    appendThreadNames(&out, &first, 1, sorted, "lane");
    for (const SpanEvent *ev : sorted) {
        if (!first)
            out += ',';
        first = false;
        appendSpanJson(&out, 1, *ev, 0.0);
    }
    // Loss accounting: a reader can tell a complete trace from one
    // truncated by ring overflow or collector eviction.
    out += "],\"otherData\":{\"recorded\":" +
           std::to_string(spansRecorded()) + ",\"dropped\":" +
           std::to_string(droppedEvents()) + ",\"evicted\":" +
           std::to_string(evictedEvents()) + "}}";
    return out;
}

std::string
chromeTraceJsonMerged(const std::vector<TraceProcessSlice> &slices)
{
    std::string out;
    std::size_t total = 0;
    for (const TraceProcessSlice &slice : slices)
        total += slice.events.size();
    out.reserve(512 + total * 160);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const TraceProcessSlice &slice : slices) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"ph\":\"M\",\"pid\":" +
               std::to_string(slice.pid) +
               ",\"tid\":0,\"name\":\"process_name\",\"args\":"
               "{\"name\":" +
               jsonString(slice.process_name) + "}}";
    }
    for (const TraceProcessSlice &slice : slices) {
        const std::vector<const SpanEvent *> sorted =
            sortedByTs(slice.events);
        // Rebase each process to its own first event: the slices'
        // steady clocks share no epoch, so only intra-process offsets
        // are meaningful; rebasing at least starts the lanes together.
        const double base = sorted.empty() ? 0.0 : sorted[0]->ts_us;
        appendThreadNames(&out, &first, slice.pid, sorted, "worker");
        for (const SpanEvent *ev : sorted) {
            if (!first)
                out += ',';
            first = false;
            appendSpanJson(&out, slice.pid, *ev, base);
        }
    }
    out += "],\"otherData\":{\"dropped\":{";
    bool first_drop = true;
    for (const TraceProcessSlice &slice : slices) {
        if (!first_drop)
            out += ',';
        first_drop = false;
        out += jsonString(slice.process_name) + ":" +
               std::to_string(slice.dropped);
    }
    out += "}}}";
    return out;
}

// --------------------------------------------------------------------
// Metrics
// --------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<long long>[bounds_.size() + 1])
{
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

void
Histogram::observe(double v)
{
    std::size_t i =
        std::lower_bound(bounds_.begin(), bounds_.end(), v) -
        bounds_.begin();
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t expected =
        sum_bits_.load(std::memory_order_relaxed);
    for (;;) {
        double current;
        std::memcpy(&current, &expected, sizeof current);
        const double next = current + v;
        std::uint64_t next_bits;
        std::memcpy(&next_bits, &next, sizeof next_bits);
        if (sum_bits_.compare_exchange_weak(
                expected, next_bits, std::memory_order_relaxed))
            break;
    }
}

double
Histogram::sum() const
{
    const std::uint64_t bits =
        sum_bits_.load(std::memory_order_relaxed);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

long long
Histogram::bucketCount(std::size_t i) const
{
    if (i > bounds_.size())
        return 0;
    return buckets_[i].load(std::memory_order_relaxed);
}

const std::vector<double> &
defaultLatencyBucketsMs()
{
    static const std::vector<double> *buckets =
        new std::vector<double>{0.05, 0.1,  0.25, 0.5,  1.0,  2.5,
                                5.0,  10.0, 25.0, 50.0, 100.0, 250.0,
                                500.0, 1000.0, 2500.0, 10000.0};
    return *buckets;
}

struct Registry::Impl {
    mutable SpinLock lock;
    // std::map keeps jsonDump() name-sorted; unique_ptr keeps metric
    // addresses stable across rehash-free inserts.
    std::map<std::string, std::unique_ptr<Counter>, std::less<>>
        counters;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        histograms;
};

Registry &
Registry::instance()
{
    static Registry *registry = new Registry();
    return *registry;
}

Registry::Impl &
Registry::impl() const
{
    static Impl *impl = [] {
        Impl *i = new Impl();
        g_registry_lock.store(&i->lock, std::memory_order_release);
        return i;
    }();
    return *impl;
}

Counter &
Registry::counter(std::string_view name)
{
    Impl &i = impl();
    SpinGuard guard(i.lock);
    auto it = i.counters.find(name);
    if (it == i.counters.end())
        it = i.counters
                 .emplace(std::string(name),
                          std::unique_ptr<Counter>(new Counter()))
                 .first;
    return *it->second;
}

Gauge &
Registry::gauge(std::string_view name)
{
    Impl &i = impl();
    SpinGuard guard(i.lock);
    auto it = i.gauges.find(name);
    if (it == i.gauges.end())
        it = i.gauges
                 .emplace(std::string(name),
                          std::unique_ptr<Gauge>(new Gauge()))
                 .first;
    return *it->second;
}

Histogram &
Registry::histogram(std::string_view name,
                    const std::vector<double> &bounds)
{
    Impl &i = impl();
    SpinGuard guard(i.lock);
    auto it = i.histograms.find(name);
    if (it == i.histograms.end())
        it = i.histograms
                 .emplace(std::string(name),
                          std::unique_ptr<Histogram>(
                              new Histogram(bounds)))
                 .first;
    return *it->second;
}

std::string
Registry::jsonDump() const
{
    Impl &i = impl();
    SpinGuard guard(i.lock);

    std::string out = "{\"apex_metrics\":1,\"counters\":[";
    bool first = true;
    for (const auto &[name, c] : i.counters) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"name\":" + jsonString(name) + ",\"value\":" +
               std::to_string(c->value()) + "}";
    }
    out += "],\"gauges\":[";
    first = true;
    for (const auto &[name, g] : i.gauges) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"name\":" + jsonString(name) + ",\"value\":" +
               jsonNumber(g->value()) + "}";
    }
    out += "],\"histograms\":[";
    first = true;
    for (const auto &[name, h] : i.histograms) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"name\":" + jsonString(name) + ",\"bounds\":[";
        for (std::size_t b = 0; b < h->bounds().size(); ++b) {
            if (b)
                out += ',';
            out += jsonNumber(h->bounds()[b]);
        }
        out += "],\"counts\":[";
        for (std::size_t b = 0; b <= h->bounds().size(); ++b) {
            if (b)
                out += ',';
            out += std::to_string(h->bucketCount(b));
        }
        out += "],\"sum\":" + jsonNumber(h->sum()) + ",\"count\":" +
               std::to_string(h->count()) + "}";
    }
    out += "]}";
    return out;
}

StageTimer::StageTimer(Histogram &h)
    : histogram_(h), t0_ns_(monotonicNanos())
{
}

StageTimer::~StageTimer()
{
    histogram_.observe(
        static_cast<double>(monotonicNanos() - t0_ns_) / 1e6);
}

std::uint64_t
monotonicNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - processOrigin())
            .count());
}

// --------------------------------------------------------------------
// Fork safety: a fork while another thread holds a telemetry spinlock
// would leave it locked forever in the child (the durability fault
// stage forks + SIGKILLs children mid-sweep).  Reset every lock in
// the child; the child's telemetry data is disposable.
// --------------------------------------------------------------------

namespace {

void
atforkChild()
{
    tracingGlobal().lock.resetAfterFork();
    if (SpinLock *lock =
            g_registry_lock.load(std::memory_order_acquire))
        lock->resetAfterFork();
}

struct AtforkInstaller {
    AtforkInstaller()
    {
        pthread_atfork(nullptr, nullptr, &atforkChild);
    }
};
AtforkInstaller g_atfork_installer;

} // namespace

} // namespace apex::telemetry

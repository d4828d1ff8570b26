#include "service/protocol.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include <unistd.h>

#include "core/encoding.hpp"
#include "core/evaluate.hpp"

namespace apex::service {

namespace {

using namespace core::enc;

/** Hex-float doubles round-trip IEEE values exactly, so a decoded
 * deadline (or metric) is bit-identical to the encoded one. */
void
putDouble(std::ostream &os, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    os << buf << '\n';
}

bool
getDouble(std::istream &is, double *out)
{
    std::string tok;
    if (!(is >> tok))
        return false;
    is.get();
    char *end = nullptr;
    *out = std::strtod(tok.c_str(), &end);
    return end != nullptr && *end == '\0' && end != tok.c_str();
}

} // namespace

// --- hello -----------------------------------------------------------

std::string
encodeHello(const HelloRequest &req)
{
    std::ostringstream os;
    os << req.protocol << '\n';
    putStr(os, req.client);
    return os.str();
}

bool
decodeHello(const std::string &payload, HelloRequest *out)
{
    std::istringstream is(payload);
    if (!(is >> out->protocol))
        return false;
    is.get();
    return getStr(is, &out->client);
}

std::string
encodeHelloReply(const HelloReply &rep)
{
    std::ostringstream os;
    os << rep.protocol << '\n';
    putStr(os, rep.server_version);
    return os.str();
}

bool
decodeHelloReply(const std::string &payload, HelloReply *out)
{
    std::istringstream is(payload);
    if (!(is >> out->protocol))
        return false;
    is.get();
    return getStr(is, &out->server_version);
}

// --- info ------------------------------------------------------------

std::string
encodeInfoReply(const InfoReply &rep)
{
    std::ostringstream os;
    os << rep.protocol << '\n';
    putStr(os, rep.version);
    putStr(os, rep.commit);
    putStr(os, rep.flags);
    return os.str();
}

bool
decodeInfoReply(const std::string &payload, InfoReply *out)
{
    std::istringstream is(payload);
    if (!(is >> out->protocol))
        return false;
    is.get();
    return getStr(is, &out->version) && getStr(is, &out->commit) &&
           getStr(is, &out->flags);
}

// --- sweep request ---------------------------------------------------

std::string
encodeSweepRequest(const SweepRequest &req)
{
    std::ostringstream os;
    os << req.id << ' ' << req.priority << ' ' << req.cell_retries
       << ' ' << (req.want_progress ? 1 : 0) << '\n';
    putStr(os, req.level);
    putStr(os, req.isolate);
    putDouble(os, req.deadline_ms);
    putDouble(os, req.cell_deadline_ms);
    os << req.trace_id << '\n';
    return os.str();
}

bool
decodeSweepRequest(const std::string &payload, SweepRequest *out)
{
    std::istringstream is(payload);
    int want_progress = 0;
    if (!(is >> out->id >> out->priority >> out->cell_retries >>
          want_progress))
        return false;
    is.get();
    out->want_progress = want_progress != 0;
    unsigned long long trace = 0;
    if (!getStr(is, &out->level) || !getStr(is, &out->isolate) ||
        !getDouble(is, &out->deadline_ms) ||
        !getDouble(is, &out->cell_deadline_ms) || !(is >> trace))
        return false;
    out->trace_id = trace;
    return true;
}

// --- ack / reject ----------------------------------------------------

std::string
encodeAck(const SweepAck &ack)
{
    std::ostringstream os;
    os << ack.id << ' ' << (ack.coalesced ? 1 : 0) << '\n';
    return os.str();
}

bool
decodeAck(const std::string &payload, SweepAck *out)
{
    std::istringstream is(payload);
    int coalesced = 0;
    if (!(is >> out->id >> coalesced))
        return false;
    out->coalesced = coalesced != 0;
    return true;
}

std::string
encodeReject(const SweepReject &rej)
{
    std::ostringstream os;
    os << rej.id << ' ' << static_cast<int>(rej.code) << '\n';
    putStr(os, rej.reason);
    putDouble(os, rej.retry_after_ms);
    return os.str();
}

bool
decodeReject(const std::string &payload, SweepReject *out)
{
    std::istringstream is(payload);
    int code = 0;
    if (!(is >> out->id >> code))
        return false;
    is.get();
    out->code = static_cast<ErrorCode>(code);
    return getStr(is, &out->reason) &&
           getDouble(is, &out->retry_after_ms);
}

// --- progress --------------------------------------------------------

std::string
encodeProgress(const SweepProgressFrame &p)
{
    std::ostringstream os;
    os << p.id << ' ' << p.done << ' ' << p.total << '\n';
    putStr(os, p.app);
    putStr(os, p.variant);
    os << p.trace_id << '\n';
    return os.str();
}

bool
decodeProgress(const std::string &payload, SweepProgressFrame *out)
{
    std::istringstream is(payload);
    if (!(is >> out->id >> out->done >> out->total))
        return false;
    is.get();
    unsigned long long trace = 0;
    if (!getStr(is, &out->app) || !getStr(is, &out->variant) ||
        !(is >> trace))
        return false;
    out->trace_id = trace;
    return true;
}

// --- report ----------------------------------------------------------

std::string
encodeSweepReply(const SweepReply &rep)
{
    std::ostringstream os;
    os << rep.id << '\n';
    os << (rep.deadline_bounded ? 1 : 0) << ' '
       << (rep.deadline_expired ? 1 : 0) << ' '
       << (rep.cancelled ? 1 : 0) << '\n';
    os << rep.entries.size() << '\n';
    for (const core::SweepEntry &e : rep.entries) {
        putStr(os, e.app);
        putStr(os, e.variant);
        putStr(os, core::serializeEvalResult(e.result));
    }
    const ExplorationReport &r = rep.report;
    os << r.evaluated << ' ' << r.skipped << ' ' << r.degraded
       << '\n';
    os << r.failures.size() << '\n';
    for (const StageFailure &f : r.failures) {
        putStr(os, f.app);
        putStr(os, f.variant);
        putStr(os, f.stage);
        putStatus(os, f.status);
        os << f.attempts << '\n';
    }
    putDiagnostics(os, r.diagnostics);
    return os.str();
}

bool
decodeSweepReply(const std::string &payload, SweepReply *out)
{
    std::istringstream is(payload);
    if (!(is >> out->id))
        return false;
    is.get();
    int bounded = 0;
    int expired = 0;
    int cancelled = 0;
    if (!(is >> bounded >> expired >> cancelled))
        return false;
    is.get();
    out->deadline_bounded = bounded != 0;
    out->deadline_expired = expired != 0;
    out->cancelled = cancelled != 0;

    std::size_t n = 0;
    if (!(is >> n))
        return false;
    is.get();
    out->entries.clear();
    // No reserve(n): the count is wire-supplied, so allocation must
    // track the entries the payload actually delivers, not a forged
    // header.  A bogus count fails at the first missing entry.
    for (std::size_t i = 0; i < n; ++i) {
        core::SweepEntry e;
        std::string blob;
        if (!getStr(is, &e.app) || !getStr(is, &e.variant) ||
            !getStr(is, &blob))
            return false;
        Result<core::EvalResult> parsed = core::parseEvalResult(blob);
        if (!parsed.ok())
            return false;
        e.result = std::move(parsed).value();
        out->entries.push_back(std::move(e));
    }

    ExplorationReport &r = out->report;
    r = ExplorationReport{};
    if (!(is >> r.evaluated >> r.skipped >> r.degraded))
        return false;
    is.get();
    std::size_t nfail = 0;
    if (!(is >> nfail))
        return false;
    is.get();
    // Wire-supplied count: no reserve (see entries above).
    for (std::size_t i = 0; i < nfail; ++i) {
        StageFailure f;
        if (!getStr(is, &f.app) || !getStr(is, &f.variant) ||
            !getStr(is, &f.stage) || !getStatus(is, &f.status))
            return false;
        if (!(is >> f.attempts))
            return false;
        is.get();
        r.failures.push_back(std::move(f));
    }
    return getDiagnostics(is, &r.diagnostics);
}

// --- trace -----------------------------------------------------------

std::uint64_t
mintTraceId()
{
    static std::atomic<std::uint64_t> sequence{0};
    std::uint64_t h = 1469598103934665603ull; // fnv1a64 offset basis.
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix(static_cast<std::uint64_t>(::getpid()));
    mix(static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count()));
    mix(sequence.fetch_add(1, std::memory_order_relaxed));
    return h == 0 ? 1 : h; // 0 means "no trace context" everywhere.
}

std::string
encodeTraceRequest(const TraceRequest &req)
{
    std::ostringstream os;
    os << req.trace_id << '\n';
    return os.str();
}

bool
decodeTraceRequest(const std::string &payload, TraceRequest *out)
{
    std::istringstream is(payload);
    unsigned long long trace = 0;
    if (!(is >> trace))
        return false;
    out->trace_id = trace;
    return true;
}

std::string
encodeTraceReply(const TraceReply &rep)
{
    std::ostringstream os;
    os << rep.trace_id << ' ' << rep.dropped << ' ' << rep.evicted
       << '\n';
    os << rep.events.size() << '\n';
    for (const telemetry::SpanEvent &ev : rep.events) {
        putStr(os, ev.name);
        putStr(os, ev.scope);
        putStr(os, ev.args);
        putDouble(os, ev.ts_us);
        putDouble(os, ev.dur_us);
        os << ev.lane << ' ' << ev.thread_ord << ' ' << ev.depth
           << ' ' << ev.trace_id << '\n';
    }
    return os.str();
}

bool
decodeTraceReply(const std::string &payload, TraceReply *out)
{
    std::istringstream is(payload);
    unsigned long long trace = 0;
    if (!(is >> trace >> out->dropped >> out->evicted))
        return false;
    is.get();
    out->trace_id = trace;
    std::size_t n = 0;
    if (!(is >> n))
        return false;
    is.get();
    out->events.clear();
    // No reserve(n): wire-supplied count (see decodeSweepReply).
    for (std::size_t i = 0; i < n; ++i) {
        telemetry::SpanEvent ev;
        if (!getStr(is, &ev.name) || !getStr(is, &ev.scope) ||
            !getStr(is, &ev.args) || !getDouble(is, &ev.ts_us) ||
            !getDouble(is, &ev.dur_us))
            return false;
        unsigned long long ev_trace = 0;
        if (!(is >> ev.lane >> ev.thread_ord >> ev.depth >> ev_trace))
            return false;
        is.get();
        ev.trace_id = ev_trace;
        out->events.push_back(std::move(ev));
    }
    return true;
}

// --- statusz ---------------------------------------------------------

std::string
encodeStatuszRequest(const StatuszRequest &req)
{
    std::ostringstream os;
    os << req.max_samples << '\n';
    return os.str();
}

bool
decodeStatuszRequest(const std::string &payload, StatuszRequest *out)
{
    std::istringstream is(payload);
    return static_cast<bool>(is >> out->max_samples);
}

namespace {

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

} // namespace

std::string
encodeStatuszReply(const StatuszReply &rep)
{
    std::ostringstream os;
    putDouble(os, rep.interval_ms);
    os << rep.samples.size() << '\n';
    for (const StatusSnapshot &s : rep.samples) {
        putDouble(os, s.ts_ms);
        for (const double v : s.values)
            putDouble(os, v);
    }
    return os.str();
}

bool
decodeStatuszReply(const std::string &payload, StatuszReply *out)
{
    std::istringstream is(payload);
    if (!getDouble(is, &out->interval_ms))
        return false;
    std::size_t n = 0;
    if (!(is >> n))
        return false;
    is.get();
    out->samples.clear();
    // No reserve(n): wire-supplied count (see decodeSweepReply).
    for (std::size_t i = 0; i < n; ++i) {
        StatusSnapshot s;
        if (!getDouble(is, &s.ts_ms))
            return false;
        for (double &v : s.values)
            if (!getDouble(is, &v))
                return false;
        out->samples.push_back(s);
    }
    return true;
}

std::string
statuszJson(const StatuszReply &rep)
{
    std::string out = "{\"apex_statusz\":1,\"interval_ms\":" +
                      jsonNumber(rep.interval_ms) + ",\"samples\":[";
    for (std::size_t i = 0; i < rep.samples.size(); ++i) {
        const StatusSnapshot &s = rep.samples[i];
        out += (i == 0 ? "{\"ts_ms\":" : ",{\"ts_ms\":") +
               jsonNumber(s.ts_ms);
        for (std::size_t v = 0; v < s.values.size(); ++v)
            out += ",\"" + std::string(kStatuszVitals[v].key) + "\":" +
                   (kStatuszVitals[v].kind == VitalKind::kMs
                        ? jsonNumber(s.values[v])
                        : std::to_string(std::llround(s.values[v])));
        out += '}';
    }
    out += "]}";
    return out;
}

std::string
renderStatuszText(const StatuszReply &rep)
{
    char buf[256];
    std::string out;
    if (rep.samples.empty())
        return "apexd statusz: no samples yet\n";
    const StatusSnapshot &now = rep.samples.back();
    std::snprintf(buf, sizeof buf,
                  "apexd statusz  %zu sample(s), interval %.0f ms\n",
                  rep.samples.size(), rep.interval_ms);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "  sessions %.0f  queue %.0f  active %.0f  "
                  "inflight_bytes %.0f\n",
                  now["sessions"], now["queue_depth"],
                  now["active_sweeps"], now["inflight_bytes"]);
    out += buf;
    const double lookups = now["cache_hits"] + now["cache_misses"];
    std::snprintf(buf, sizeof buf,
                  "  cache hit rate %.1f%% (%.0f/%.0f)  "
                  "worker restarts %.0f  trace drops %.0f\n",
                  lookups > 0 ? 100.0 * now["cache_hits"] / lookups
                              : 0.0,
                  now["cache_hits"], lookups, now["worker_restarts"],
                  now["trace_dropped"]);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "  mining: patterns %.0f  embeddings %.0f  "
                  "pruned %.0f\n",
                  now["mined_patterns"], now["mine_embeddings"],
                  now["mine_pruned"]);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "  request p50/p99 %.1f/%.1f ms\n",
                  now["request_p50_ms"], now["request_p99_ms"]);
    out += buf;
    if (rep.samples.size() >= 2) {
        const StatusSnapshot &prev = rep.samples[rep.samples.size() - 2];
        std::snprintf(buf, sizeof buf,
                      "  last interval: accepted +%.0f  rejected "
                      "+%.0f  coalesced +%.0f  sweeps +%.0f\n",
                      now["accepted"] - prev["accepted"],
                      now["rejected"] - prev["rejected"],
                      now["coalesced"] - prev["coalesced"],
                      now["sweeps"] - prev["sweeps"]);
        out += buf;
    }
    std::snprintf(buf, sizeof buf,
                  "  totals: accepted %.0f  rejected %.0f  "
                  "coalesced %.0f  sweeps %.0f\n",
                  now["accepted"], now["rejected"], now["coalesced"],
                  now["sweeps"]);
    out += buf;
    return out;
}

// --- rendering -------------------------------------------------------

std::string
renderSweepText(const std::vector<core::SweepEntry> &entries,
                const ExplorationReport &report)
{
    std::string out;
    char buf[256];
    for (const core::SweepEntry &e : entries) {
        std::snprintf(buf, sizeof buf,
                      "%-10s %-16s pe_count=%-3d pe_area_um2=%-10.1f "
                      "pe_energy_pj=%.3f\n",
                      e.app.c_str(), e.variant.c_str(),
                      e.result.pe_count, e.result.pe_area,
                      e.result.pe_energy);
        out += buf;
    }
    out += report.summary();
    out += '\n';
    return out;
}

// --- the shared sweep path -------------------------------------------

Result<core::SweepOptions>
sweepOptionsFor(const SweepRequest &request)
{
    const Result<core::EvalLevel> level =
        core::parseEvalLevel(request.level);
    if (!level)
        return level.status();
    const Result<core::IsolateMode> isolate =
        core::parseIsolateMode(request.isolate);
    if (!isolate)
        return isolate.status();
    core::SweepOptions opts;
    opts.level = *level;
    opts.isolate = *isolate;
    opts.cell_retries = request.cell_retries;
    opts.cell_deadline_ms = request.cell_deadline_ms;
    if (request.deadline_ms >= 0)
        opts.deadline = Deadline::after(request.deadline_ms);
    opts.trace_id = request.trace_id;
    return opts;
}

SweepReply
sweepReplyFor(core::SweepOutcome &outcome,
              const core::SweepOptions &options)
{
    SweepReply reply;
    reply.deadline_bounded = !options.deadline.isInfinite();
    reply.deadline_expired =
        reply.deadline_bounded && options.deadline.expired();
    reply.cancelled = options.cancel != nullptr && options.cancel->load();
    reply.entries = std::move(outcome.entries);
    reply.report = std::move(outcome.report);
    return reply;
}

int
sweepExitCode(const SweepReply &rep)
{
    if (rep.cancelled)
        return exitCodeFor(ErrorCode::kCancelled);
    if (rep.report.evaluated == 0 && rep.deadline_bounded &&
        rep.deadline_expired)
        return exitCodeFor(ErrorCode::kTimeout);
    if (rep.report.evaluated == 0 && !rep.report.failures.empty())
        return exitCodeFor(rep.report.failures.front().status.code());
    return 0;
}

} // namespace apex::service

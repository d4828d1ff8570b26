#ifndef APEX_SERVICE_PROTOCOL_H_
#define APEX_SERVICE_PROTOCOL_H_

#include <array>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.hpp"
#include "core/sweep.hpp"
#include "runtime/telemetry.hpp"

/**
 * @file
 * Wire protocol of the DSE service (see DESIGN.md Sec. 7g).
 *
 * Frames use the checksummed frame format of runtime/wire.hpp with
 * their own magic ("apexsvc") and framing version, decoded
 * incrementally by runtime::FrameDecoder; this header defines the
 * *payloads* — typed request/reply structs with encode/decode pairs
 * built on the shared primitives of core/encoding.hpp.  Every
 * decoder returns false on malformed input; a false after a
 * checksum-verified frame means a schema skew, and the session is
 * dropped.
 *
 * Conversation shape (client drives):
 *
 *   hello           -> hello.ok | hello.err        (version check)
 *   info            -> info.ok                     (build identity)
 *   metrics         -> metrics.ok                  (registry JSON)
 *   sweep           -> ack | reject,
 *                      then progress* (opt-in), then report
 *   trace           -> trace.ok                    (span slice)
 *   statusz         -> statusz.ok                  (live ring)
 *   bye             -> bye.ok, connection closes
 *
 * The hello handshake accepts exactly kProtocolVersion and refuses
 * any other version by name, so every payload below has one schema.
 *
 * The correctness contract of the sweep path: renderSweepText() over
 * a decoded SweepReply produces byte-identical stdout to the batch
 * `apexc sweep` with the same flags — the daemon's job count,
 * executor assignment and coalescing are invisible in the bytes
 * (guaranteed by runSweep's determinism contract).
 */

namespace apex::service {

/** Frame magic + framing version of service sockets (the payload
 * schema version is kProtocolVersion in version.hpp). */
inline constexpr std::string_view kServiceMagic = "apexsvc";
inline constexpr int kServiceWireVersion = 1;

// Frame types.
inline constexpr std::string_view kFrameHello = "hello";
inline constexpr std::string_view kFrameHelloOk = "hello.ok";
inline constexpr std::string_view kFrameHelloErr = "hello.err";
inline constexpr std::string_view kFrameInfo = "info";
inline constexpr std::string_view kFrameInfoOk = "info.ok";
inline constexpr std::string_view kFrameMetrics = "metrics";
inline constexpr std::string_view kFrameMetricsOk = "metrics.ok";
inline constexpr std::string_view kFrameSweep = "sweep";
inline constexpr std::string_view kFrameAck = "ack";
inline constexpr std::string_view kFrameReject = "reject";
inline constexpr std::string_view kFrameProgress = "progress";
inline constexpr std::string_view kFrameReport = "report";
inline constexpr std::string_view kFrameBye = "bye";
inline constexpr std::string_view kFrameByeOk = "bye.ok";
inline constexpr std::string_view kFrameTrace = "trace";
inline constexpr std::string_view kFrameTraceOk = "trace.ok";
inline constexpr std::string_view kFrameStatusz = "statusz";
inline constexpr std::string_view kFrameStatuszOk = "statusz.ok";

// --------------------------------------------------------------------
// Handshake
// --------------------------------------------------------------------

/** First frame on every connection. */
struct HelloRequest {
    int protocol = 0;   ///< Client's kProtocolVersion.
    std::string client; ///< Free-form identity ("apexc", a test, ...).
};

/** hello.ok payload. */
struct HelloReply {
    int protocol = 0;           ///< Server's kProtocolVersion.
    std::string server_version; ///< versionString().
};

std::string encodeHello(const HelloRequest &req);
bool decodeHello(const std::string &payload, HelloRequest *out);
std::string encodeHelloReply(const HelloReply &rep);
bool decodeHelloReply(const std::string &payload, HelloReply *out);

// --------------------------------------------------------------------
// Build identity (the `info` request)
// --------------------------------------------------------------------

/** info.ok payload: enough to diagnose any client/daemon skew. */
struct InfoReply {
    int protocol = 0;
    std::string version; ///< versionString().
    std::string commit;  ///< buildCommit().
    std::string flags;   ///< buildFlags().
};

std::string encodeInfoReply(const InfoReply &rep);
bool decodeInfoReply(const std::string &payload, InfoReply *out);

// --------------------------------------------------------------------
// Sweep request / streaming response
// --------------------------------------------------------------------

/**
 * One sweep over the built-in application set — the CLI-level knobs
 * of `apexc sweep`.  Batch mode builds one from its flags too, and
 * sweepOptionsFor() turns it into the core::SweepOptions both paths
 * run.  The daemon decides the execution resources (its own job
 * count and executors); runSweep's determinism contract makes that
 * invisible in the reply bytes.
 */
struct SweepRequest {
    std::uint64_t id = 0;       ///< Client-chosen request id, echoed
                                ///< in every response frame.
    int priority = 0;           ///< Higher pops from the queue first.
    std::string level = "map";  ///< map | pnr | pipe.
    std::string isolate = "thread"; ///< thread | process.
    int cell_retries = 2;
    /** Sweep budget from the start of execution: < 0 unbounded,
     * 0 already expired. */
    double deadline_ms = -1.0;
    double cell_deadline_ms = 0.0; ///< <= 0: none.
    bool want_progress = false;    ///< Stream per-cell progress.
    std::uint64_t trace_id = 0;    ///< Request trace context (0: none).
};

std::string encodeSweepRequest(const SweepRequest &req);
bool decodeSweepRequest(const std::string &payload, SweepRequest *out);

/** ack payload: the request is queued (or attached to an identical
 * in-flight sweep). */
struct SweepAck {
    std::uint64_t id = 0;
    bool coalesced = false; ///< Attached to an in-flight request.
};

std::string encodeAck(const SweepAck &ack);
bool decodeAck(const std::string &payload, SweepAck *out);

/** reject payload: admission control refused the request. */
struct SweepReject {
    std::uint64_t id = 0;
    ErrorCode code = ErrorCode::kUnavailable;
    std::string reason;
    /**
     * Load-shedding hint: how long the daemon suggests the client
     * wait before resubmitting (0 = no hint — e.g. the reject is a
     * permanent kInvalidArgument, retrying is pointless).  A
     * self-healing client (runSweepResilient) sleeps max(hint, its
     * own backoff) so a shedding daemon shapes its readmission
     * traffic instead of being hammered.
     */
    double retry_after_ms = 0.0;
};

std::string encodeReject(const SweepReject &rej);
bool decodeReject(const std::string &payload, SweepReject *out);

/** progress payload: one completed cell (streamed when the request
 * opted in; attached requests observe cells of the shared sweep). */
struct SweepProgressFrame {
    std::uint64_t id = 0;
    int done = 0;
    int total = 0;
    std::string app;
    std::string variant;
    /** The *subscriber's* trace context: coalesced subscribers of one
     * shared sweep each receive their own trace_id back, not the
     * primary's. */
    std::uint64_t trace_id = 0;
};

std::string encodeProgress(const SweepProgressFrame &p);
bool decodeProgress(const std::string &payload,
                    SweepProgressFrame *out);

/** report payload: the complete sweep outcome, plus the deadline and
 * cancellation state sweepExitCode() reads. */
struct SweepReply {
    std::uint64_t id = 0;
    bool deadline_bounded = false;
    bool deadline_expired = false;
    bool cancelled = false; ///< Daemon shut down mid-sweep.
    std::vector<core::SweepEntry> entries;
    ExplorationReport report;
};

std::string encodeSweepReply(const SweepReply &rep);
bool decodeSweepReply(const std::string &payload, SweepReply *out);

// --------------------------------------------------------------------
// Request trace slices
// --------------------------------------------------------------------

/** Mint a process-unique request trace id (never 0): pid, a steady
 * clock read and a process-wide counter mixed through fnv1a.  Not a
 * secret — just unique enough that concurrent clients of one daemon
 * cannot collide in practice. */
std::uint64_t mintTraceId();

/** trace payload: fetch the daemon-side spans of one request. */
struct TraceRequest {
    std::uint64_t trace_id = 0;
};

std::string encodeTraceRequest(const TraceRequest &req);
bool decodeTraceRequest(const std::string &payload, TraceRequest *out);

/** trace.ok payload: every daemon span stamped with the request's
 * trace id, plus the daemon's span-loss counters so a truncated
 * slice is detectable (events may have been dropped at a full ring
 * or evicted from the bounded collector store). */
struct TraceReply {
    std::uint64_t trace_id = 0;
    long long dropped = 0;
    long long evicted = 0;
    std::vector<telemetry::SpanEvent> events;
};

std::string encodeTraceReply(const TraceReply &rep);
bool decodeTraceReply(const std::string &payload, TraceReply *out);

// --------------------------------------------------------------------
// Live introspection (the statusz ring)
// --------------------------------------------------------------------

/** How a statusz vital is read from the registry and rendered. */
enum class VitalKind { kCounter, kGauge, kMs };

/** One daemon vital: its statusz key and the metric behind it. */
struct StatuszVital {
    std::string_view key;
    std::string_view metric;
    VitalKind kind; ///< Counts render as integers, kMs as floats.
};

/** The statusz vitals, in wire and JSON order.  The sampler publishes
 * what only the io thread knows as gauges (sessions, sweeps in
 * flight, undelivered reply bytes, the interval's request p50/p99),
 * then reads every vital from the registry. */
inline constexpr StatuszVital kStatuszVitals[] = {
    {"sessions", "apex.service.sessions", VitalKind::kGauge},
    {"queue_depth", "apex.service.queue_depth", VitalKind::kGauge},
    {"active_sweeps", "apex.service.active_sweeps", VitalKind::kGauge},
    {"inflight_bytes", "apex.service.inflight_bytes", VitalKind::kGauge},
    {"accepted", "apex.service.accepted", VitalKind::kCounter},
    {"rejected", "apex.service.rejected", VitalKind::kCounter},
    {"coalesced", "apex.service.coalesced", VitalKind::kCounter},
    {"sweeps", "apex.service.sweeps", VitalKind::kCounter},
    {"cache_hits", "apex.cache.hits", VitalKind::kCounter},
    {"cache_misses", "apex.cache.misses", VitalKind::kCounter},
    {"worker_restarts", "apex.worker.restarts", VitalKind::kCounter},
    {"trace_dropped", "apex.trace.dropped", VitalKind::kCounter},
    {"mined_patterns", "apex.mine.patterns", VitalKind::kCounter},
    {"mine_embeddings", "apex.mine.embeddings", VitalKind::kCounter},
    {"mine_pruned", "apex.mine.pruned_noncanonical", VitalKind::kCounter},
    {"request_p50_ms", "apex.service.request_p50_ms", VitalKind::kMs},
    {"request_p99_ms", "apex.service.request_p99_ms", VitalKind::kMs},
};

/** One periodic sample of the daemon's vitals. */
struct StatusSnapshot {
    double ts_ms = 0.0; ///< monotonicNanos()-based sample time.
    /** One value per kStatuszVitals entry, in table order; a double
     * holds every count below 2^53 exactly. */
    std::array<double, std::size(kStatuszVitals)> values{};

    /** The vital named @p key; std::out_of_range for a key the table
     * does not list. */
    double &operator[](std::string_view key) { return values[index(key)]; }
    double operator[](std::string_view key) const { return values[index(key)]; }

  private:
    static std::size_t index(std::string_view key)
    {
        for (std::size_t i = 0; i < std::size(kStatuszVitals); ++i)
            if (kStatuszVitals[i].key == key)
                return i;
        throw std::out_of_range("unknown statusz vital");
    }
};

/** statusz payload: cap on returned samples (0 = everything the
 * ring holds, newest last). */
struct StatuszRequest {
    int max_samples = 0;
};

std::string encodeStatuszRequest(const StatuszRequest &req);
bool decodeStatuszRequest(const std::string &payload,
                          StatuszRequest *out);

/** statusz.ok payload: the snapshot ring, oldest first. */
struct StatuszReply {
    double interval_ms = 0.0; ///< Daemon's sampling interval.
    std::vector<StatusSnapshot> samples;
};

std::string encodeStatuszReply(const StatuszReply &rep);
bool decodeStatuszReply(const std::string &payload, StatuszReply *out);

/** Stable JSON rendering of a statusz reply (`apexc client top
 * --json`): `{"apex_statusz":1,"interval_ms":...,"samples":[...]}`.
 * CI schema-validates this shape. */
std::string statuszJson(const StatuszReply &rep);

/** Human-readable `apexc client top` screen: the latest sample's
 * vitals plus rates differenced from the previous sample. */
std::string renderStatuszText(const StatuszReply &rep);

// --------------------------------------------------------------------
// Rendering (the byte-identity contract)
// --------------------------------------------------------------------

/**
 * The exact stdout of `apexc sweep`: one line per entry, then the
 * report summary.  Batch mode and the service client both print
 * through this function, so "client output == batch output" holds by
 * construction and is enforced end-to-end by the service tests.
 */
std::string renderSweepText(const std::vector<core::SweepEntry> &entries,
                            const ExplorationReport &report);

// --------------------------------------------------------------------
// The sweep path shared by apexd, `apexc sweep` and `apexc client sweep`
// --------------------------------------------------------------------

/**
 * The core::SweepOptions @p request describes: level, isolation,
 * retries and both deadlines (sans runtime resources).  The sweep
 * deadline starts now, so apexd calls this when execution starts.
 * An unknown level or isolate name is kInvalidArgument.
 */
Result<core::SweepOptions> sweepOptionsFor(const SweepRequest &request);

/** Package a sweep that ran under @p options as its reply: the
 * entries and report move out of @p outcome (its stats and
 * durability stay), and the deadline and cancellation state are read
 * off @p options. */
SweepReply sweepReplyFor(core::SweepOutcome &outcome,
                         const core::SweepOptions &options);

/** Exit code `apexc sweep` and `apexc client sweep` map @p rep to:
 * cancelled when the sweep was stopped, timeout when a bounded sweep
 * starved, first failure's code when nothing ran. */
int sweepExitCode(const SweepReply &rep);

} // namespace apex::service

#endif // APEX_SERVICE_PROTOCOL_H_

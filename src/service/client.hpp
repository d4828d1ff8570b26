#ifndef APEX_SERVICE_CLIENT_H_
#define APEX_SERVICE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "core/status.hpp"
#include "runtime/wire.hpp"
#include "service/protocol.hpp"

/**
 * @file
 * Blocking client of the DSE service.
 *
 * A Client owns one connection: connect() dials the daemon's
 * Unix-domain socket (or 127.0.0.1:port) and completes the hello
 * handshake; the request methods then drive one
 * request/streamed-response exchange each.  Every failure is a
 * Status — kUnavailable when the daemon is absent or hangs up,
 * kInternal on protocol violations — so `apexc client ...` maps
 * errors to exit codes exactly like every other command.
 *
 * The client is synchronous by design: `apexc client sweep` has
 * nothing to do but wait, and a blocking read loop keeps the
 * byte-identity path (decode reply -> renderSweepText) trivial to
 * audit.
 */

namespace apex::service {

class Client {
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Dial @p unix_path and complete the hello handshake. */
    Status connect(const std::string &unix_path);

    /** Dial 127.0.0.1:@p port and complete the hello handshake. */
    Status connectTcp(int port);

    /** Server build identity (`info` request). */
    Status info(InfoReply *out);

    /** Telemetry registry snapshot of the daemon (`metrics`
     * request): the JSON document, verbatim. */
    Status metrics(std::string *out);

    /** Daemon-side span slice of one request (`trace`). */
    Status trace(std::uint64_t trace_id, TraceReply *out);

    /** Snapshot ring of the daemon's vitals (`statusz`;
     * @p max_samples 0 = everything). */
    Status statusz(int max_samples, StatuszReply *out);

    /**
     * Run one sweep: send the request, wait through ack | reject,
     * stream progress frames into @p on_progress (may be null) and
     * decode the final report into @p reply.  A reject becomes a
     * Status carrying the daemon's code and reason.  @p ack_out (may
     * be null) receives the ack — tests read `coalesced` from it.
     * @p reject_out (may be null) receives the full reject frame —
     * the resilient path reads the retry_after_ms hint from it.
     */
    Status runSweep(const SweepRequest &request, SweepReply *reply,
                    const std::function<void(const SweepProgressFrame &)>
                        &on_progress = nullptr,
                    SweepAck *ack_out = nullptr,
                    SweepReject *reject_out = nullptr);

    /** Polite goodbye (bye -> bye.ok); the connection closes. */
    void goodbye();

    /** Server version string captured at the handshake. */
    const std::string &serverVersion() const { return server_version_; }

  private:
    Status handshake();
    /** Send a @p type frame and read the one reply, which must be a
     * @p reply_type frame; its payload lands in @p reply_payload. */
    Status call(std::string_view type, std::string_view payload,
                std::string_view reply_type, std::string *reply_payload);
    /** Block until one frame arrives (kUnavailable on EOF). */
    Status readFrame(runtime::FramedRecord *out);
    Status sendFrame(std::string_view type, std::string_view payload);

    int fd_ = -1;
    runtime::FrameDecoder decoder_{kServiceMagic, kServiceWireVersion};
    std::string server_version_;
};

/** Reconnect/retry knobs of runSweepResilient(). */
struct RetryPolicy {
    /** Total submission attempts (connect + sweep counts as one);
     * <= 1 means a single try, no retries. */
    int max_attempts = 5;
    /** First backoff delay; each further retry doubles it. */
    double base_ms = 200.0;
    /** Backoff ceiling. */
    double max_ms = 5000.0;
    /** Seed of the deterministic jitter (0 = derive from the pid).
     * Tests pin it so sleep sequences are reproducible. */
    std::uint64_t jitter_seed = 0;
    /** Test hook: invoked with each delay instead of sleeping.
     * Null = really sleep. */
    std::function<void(double ms)> sleep_fn;
};

/** What the resilient path did to land the sweep (telemetry for
 * tests and the --progress footer). */
struct RetryStats {
    int attempts = 0;     ///< Submissions tried (>= 1).
    int rejects = 0;      ///< Load-shedding rejects absorbed.
    int disconnects = 0;  ///< Connections lost (or never made).
    double slept_ms = 0;  ///< Total backoff budget consumed.
    /** The landing attempt attached to an identical in-flight
     * sweep (its ack's coalesced bit). */
    bool coalesced = false;
};

/**
 * Self-healing sweep submission: dial the daemon (@p unix_path, or
 * 127.0.0.1:@p tcp_port when the path is empty), submit @p request
 * and collect the report, absorbing every *transient* failure —
 * connect refused while the daemon restarts, a load-shedding reject,
 * the connection dying mid-sweep (daemon SIGKILLed) — by
 * reconnecting with exponential backoff + deterministic jitter and
 * resubmitting the same request.  Rejects carrying a retry_after_ms
 * hint stretch the backoff to at least the hint, so a shedding
 * daemon shapes its own readmission traffic.
 *
 * Resubmission is idempotent by construction: requests coalesce on
 * the sweep fingerprint, and a daemon with a cache dir journals each
 * sweep under that fingerprint, so a restarted daemon replays the
 * completed cells and the eventual report is byte-identical to an
 * undisturbed run.  Permanent failures (kInvalidArgument, protocol
 * violations) return immediately; exhausting max_attempts returns
 * the last transient Status (kUnavailable -> exit 16), never a hang.
 */
Status runSweepResilient(
    const std::string &unix_path, int tcp_port,
    const SweepRequest &request, const RetryPolicy &policy,
    SweepReply *reply,
    const std::function<void(const SweepProgressFrame &)>
        &on_progress = nullptr,
    RetryStats *stats = nullptr);

} // namespace apex::service

#endif // APEX_SERVICE_CLIENT_H_

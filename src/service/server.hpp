#ifndef APEX_SERVICE_SERVER_H_
#define APEX_SERVICE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/status.hpp"
#include "core/sweep.hpp"
#include "runtime/cache.hpp"
#include "service/protocol.hpp"
#include "service/queue.hpp"
#include "service/session.hpp"

/**
 * @file
 * apexd — the long-running DSE service daemon.
 *
 * The daemon keeps the expensive state of a sweep hot across
 * requests: the application set (parsed graphs), and a shared
 * content-addressed ArtifactCache whose rewrite-rule and evaluation
 * artifacts make the Nth sweep incremental.  Requests arrive over a
 * Unix-domain socket (optionally TCP on 127.0.0.1) as checksummed
 * frames (service/protocol.hpp) and flow through:
 *
 *   session layer  — handshake, request ids (session.hpp)
 *   admission      — bounded priority queue; a full queue REJECTS
 *                    with an explicit frame (queue.hpp)
 *   coalescing     — requests are keyed on the sweep's content
 *                    fingerprint (core::sweepFingerprint + the
 *                    outcome-shaping knobs); an identical in-flight
 *                    request gains a subscriber instead of a second
 *                    execution, and every subscriber receives the
 *                    full report
 *   execution      — N executor threads pop jobs and run
 *                    core::runSweep on the shared cache; progress
 *                    streams to subscribed sessions per completed
 *                    cell
 *
 * Threading: one io thread owns every socket (poll + reads + writes);
 * executors never touch a socket — they enqueue outbound frames and
 * wake the io thread through a self-pipe.  stop() (SIGTERM path)
 * stops accepting, abandons the queue, cancels running sweeps
 * cooperatively and joins every thread.  Reports of cancelled
 * sweeps are dropped, not delivered: subscribers see the connection
 * close (kUnavailable), which a retrying client reconnects on.
 *
 * Metrics: apex.service.accepted / rejected / coalesced counters,
 * apex.service.queue_depth gauge, apex.service.sweeps (sweeps
 * actually executed — coalescing keeps this below accepted), and the
 * apex.service.request_ms latency histogram.
 */

namespace apex::service {

/** Daemon configuration. */
struct ServerOptions {
    /** Unix-domain socket path (required; an existing file is
     * replaced). */
    std::string unix_path;
    /** TCP listener on 127.0.0.1 (< 0: none, 0: ephemeral — read the
     * bound port back with tcpPort()). */
    int tcp_port = -1;
    /** Executor threads: sweeps running concurrently. */
    int executors = 1;
    /** Admission bound: queued (not yet running) requests beyond this
     * are rejected. */
    std::size_t queue_depth = 8;
    /** Worker lanes per sweep (core::SweepOptions::jobs). */
    int jobs = 1;
    /** Artifact-cache directory ("" = in-memory only). */
    std::string cache_dir;
    /**
     * Test hook: hold each job this long between dequeue and
     * execution, widening the window in which an identical request
     * coalesces deterministically.  0 in production.
     */
    double admission_hold_ms = 0.0;

    /**
     * Soft memory budget in bytes over the frames sitting in the
     * executor->io handoff (undelivered reports and progress).  When
     * exceeded, new sweeps are shed with kUnavailable + retry_after
     * until the io thread drains — slow readers cost admission, not
     * the daemon's address space.  0 = unlimited.
     */
    std::size_t mem_budget_bytes = 0;
    /** Per-session cap on sweeps in flight (admitted, report not yet
     * handed to the io thread); one greedy client saturating the
     * admission queue is shed instead of starving everyone else.
     * 0 = unlimited. */
    int session_cap = 0;
    /** Readmission hint carried by load-shedding rejects (queue
     * full, memory budget, session cap). */
    double retry_after_ms = 250.0;

    /** Cadence of the statusz vitals sampler (io thread); <= 0
     * disables sampling and `statusz` replies stay empty. */
    double statusz_interval_ms = 1000.0;
    /** Snapshots retained in the statusz ring (oldest evicted
     * first): 120 @ 1 s = the last two minutes. */
    std::size_t statusz_capacity = 120;
};

/** One admitted sweep: the request plus every session subscribed to
 * its outcome (the first requester and each coalesced duplicate). */
struct SweepJob {
    struct Subscriber {
        std::uint64_t session_id = 0;
        std::uint64_t request_id = 0;
        bool want_progress = false;
        /** Requester's own trace id: progress frames echo it even
         * when the request coalesced onto a job executing under a
         * different (the first requester's) trace id. */
        std::uint64_t trace_id = 0;
    };

    std::uint64_t key = 0;    ///< Coalescing fingerprint.
    SweepRequest request;     ///< First requester's knobs.
    std::mutex mu;            ///< Guards subscribers.
    std::vector<Subscriber> subscribers;
};

class Server {
  public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind listeners, load the application set, spawn the io thread
     * and the executors.  Non-ok leaves the server stopped. */
    Status start();

    /** Graceful shutdown (idempotent): stop accepting, abandon the
     * queue, cancel running sweeps, join every thread, close every
     * session, remove the socket file. */
    void stop();

    /** Bound TCP port (0 when no TCP listener). */
    int tcpPort() const { return tcp_port_; }

  private:
    struct Outbound {
        std::uint64_t session_id = 0;
        std::string type;
        std::string payload;
    };

    void ioLoop();
    void executorLoop();
    void acceptPending(int listen_fd);
    /** True while accepts are paused after fd/memory exhaustion. */
    bool acceptPaused() const;
    /** Write one exhaustion/shedding episode to the event log as a
     * `service.<stage>` line.  Callers latch, so an episode is one
     * line however many events it spans; they also bump its counter
     * (apex.service.saturation_episodes,
     * apex.resource.accept_exhausted). */
    void logEpisode(const std::string &stage, const Status &status);
    /** Dispatch one post-handshake frame; false drops the session. */
    bool dispatch(Session &session, const runtime::FramedRecord &rec);
    void admitSweep(Session &session, const SweepRequest &request);
    void runJob(const std::shared_ptr<SweepJob> &job);
    /** Run the job's sweep under the `service.execute` span. */
    SweepReply executeJob(const std::shared_ptr<SweepJob> &job);
    void broadcastProgress(const std::shared_ptr<SweepJob> &job,
                           const core::SweepProgress &progress);
    /** Queue @p frame for the io thread and wake it. */
    void enqueueOutbound(std::uint64_t session_id,
                         std::string_view type, std::string payload);
    void dropSession(std::uint64_t session_id);
    std::uint64_t coalescingKey(const SweepRequest &request) const;
    /** Append one vitals snapshot to the statusz ring (io thread). */
    void sampleStatusz();

    ServerOptions options_;
    std::atomic<bool> stop_{false};
    bool started_ = false;

    int unix_fd_ = -1;
    int tcp_fd_ = -1;
    int tcp_port_ = 0;
    int wake_rd_ = -1;
    int wake_wr_ = -1;

    // Hot cross-request state.
    std::vector<apps::AppInfo> apps_;
    std::unique_ptr<runtime::ArtifactCache> cache_;

    // Sessions (io thread only, except id allocation).
    std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
    std::uint64_t next_session_id_ = 1;

    // Accept-exhaustion backoff (io thread only): while paused the
    // listeners stay out of the poll set so an EMFILE'd daemon idles
    // instead of spinning on a permanently readable listener.
    std::chrono::steady_clock::time_point accept_pause_until_{};
    double accept_backoff_ms_ = 0.0;

    // Admission + coalescing.
    AdmissionQueue<std::shared_ptr<SweepJob>> queue_;
    std::mutex inflight_mu_;
    std::map<std::uint64_t, std::shared_ptr<SweepJob>> inflight_;
    /** Sweeps in flight per session (guarded by inflight_mu_). */
    std::map<std::uint64_t, int> session_inflight_;
    /** One diagnostics line per saturation episode, not per reject. */
    std::atomic<bool> queue_saturated_{false};

    /**
     * Coalesced-trace aliases (guarded by inflight_mu_): joiner's
     * trace id -> the trace id the shared job executes under.  A
     * `trace` request for a joiner id serves the primary's span slice
     * rewritten to the joiner's id, so every subscriber can fetch
     * "its" request.  Bounded FIFO — an alias outliving the window is
     * a cold trace, not a leak.
     */
    std::map<std::uint64_t, std::uint64_t> trace_alias_;
    std::deque<std::uint64_t> trace_alias_order_;

    // Live introspection (io thread only): periodic vitals snapshots
    // served verbatim by `statusz`.
    std::deque<StatusSnapshot> statusz_ring_;
    std::chrono::steady_clock::time_point next_statusz_sample_{};
    /** request_ms histogram state at the previous sample — the delta
     * yields per-interval p50/p99. */
    std::vector<long long> prev_request_buckets_;

    // Executor -> io thread handoff.
    std::mutex outbound_mu_;
    std::vector<Outbound> outbound_;
    /** Bytes sitting in outbound_ + being flushed (mem budget). */
    std::atomic<std::size_t> outbound_bytes_{0};

    std::thread io_thread_;
    std::vector<std::thread> executors_;
};

} // namespace apex::service

#endif // APEX_SERVICE_SERVER_H_

/**
 * apexd — the APEX DSE service daemon.
 *
 * Usage:
 *   apexd --socket PATH [--tcp-port N] [--executors N] [--jobs N]
 *         [--queue-depth N] [--cache-dir DIR]
 *         [--mem-budget BYTES] [--session-cap N]
 *         [--retry-after-ms MS]
 *         [--metrics-out FILE [--metrics-interval MS]]
 *         [--log-out FILE] [--log-level debug|info|warn|error]
 *         [--statusz-interval-ms MS]
 *   apexd --version
 *
 * The daemon loads the application set once, keeps the
 * content-addressed artifact cache hot across requests, and serves
 * sweep / info / metrics requests from `apexc client ...` over a
 * Unix-domain socket (optionally TCP on 127.0.0.1).  Identical
 * concurrent sweep requests coalesce onto one execution; a full
 * admission queue rejects with an explicit frame (see
 * src/service/server.hpp and DESIGN.md Sec. 7g).  --executors N
 * sweeps run at once; each executor owns one pool of --jobs lanes for
 * its lifetime (1, the default: none; 0: one lane per hardware
 * thread) and lends it to its sweeps and their miner.
 *
 * SIGTERM / SIGINT shut down gracefully: listeners close, queued
 * requests are abandoned, running sweeps cancel cooperatively, and
 * every thread is joined before exit.  Subscribers of unfinished
 * sweeps see their connection close (kUnavailable) rather than a
 * report; a --retries client reconnects, and a restarted daemon
 * with the same --cache-dir resumes from the sweep's journal.
 *
 * Resource exhaustion (DESIGN.md Sec. 7h): --mem-budget BYTES sheds
 * new sweeps while undelivered reply bytes exceed the budget,
 * --session-cap N bounds sweeps in flight per client session, and
 * every shedding reject carries a --retry-after-ms readmission hint
 * that a self-healing client honors.  EMFILE/ENFILE on accept pauses
 * the listeners with exponential backoff instead of spinning.
 *
 * --metrics-out FILE publishes the telemetry registry once after a
 * clean shutdown (exit 2, naming the path, if that write fails);
 * --metrics-interval MS also republishes it periodically, so
 * `apex.service.*` counters are observable while the daemon runs.
 *
 * Observability (DESIGN.md Sec. 7i): tracing is always on in the
 * daemon — every span carries its request's trace id, and `apexc
 * client sweep --trace` fetches the slice for its own request.
 * --log-out FILE appends structured JSONL events (level, component,
 * message, trace_id); --log-level sets the threshold (default info).
 * Without --log-out, events still reach stderr.  `apexc client top`
 * reads the statusz vitals ring, sampled every
 * --statusz-interval-ms (default 1000).
 */
#include <csignal>
#include <cstdio>
#include <memory>

#include <poll.h>

#include "cli_flags.hpp"
#include "runtime/eventlog.hpp"
#include "runtime/record.hpp"
#include "runtime/telemetry.hpp"
#include "service/server.hpp"
#include "service/version.hpp"

namespace {

using namespace apex;
using cli::flagValue;
using cli::hasFlag;
using cli::numericFlag;

/** SIGTERM/SIGINT latch; the main thread polls it. */
volatile std::sig_atomic_t g_shutdown = 0;

extern "C" void
onShutdown(int /*signum*/)
{
    g_shutdown = 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (hasFlag(argc, argv, "--version")) {
        std::printf("%s\n", service::versionString().c_str());
        return 0;
    }

    service::ServerOptions options;
    if (const char *s = flagValue(argc, argv, "--socket"))
        options.unix_path = s;
    if (options.unix_path.empty()) {
        std::fprintf(stderr,
                     "usage: apexd --socket PATH [--tcp-port N] "
                     "[--executors N] [--jobs N] [--queue-depth N] "
                     "[--cache-dir DIR] [--metrics-out FILE "
                     "[--metrics-interval MS]]\n");
        return 2;
    }
    if (const char *s = flagValue(argc, argv, "--cache-dir"))
        options.cache_dir = s;
    double metrics_interval_ms = 0.0;
    if (const Status s = cli::firstError(
            {numericFlag(argc, argv, "--tcp-port", &options.tcp_port),
             numericFlag(argc, argv, "--executors", &options.executors),
             numericFlag(argc, argv, "--jobs", &options.jobs),
             numericFlag(argc, argv, "--queue-depth",
                         &options.queue_depth),
             numericFlag(argc, argv, "--mem-budget",
                         &options.mem_budget_bytes),
             numericFlag(argc, argv, "--session-cap",
                         &options.session_cap),
             numericFlag(argc, argv, "--retry-after-ms",
                         &options.retry_after_ms),
             numericFlag(argc, argv, "--statusz-interval-ms",
                         &options.statusz_interval_ms),
             numericFlag(argc, argv, "--metrics-interval",
                         &metrics_interval_ms)});
        !s.ok()) {
        std::fprintf(stderr, "apexd: %s\n", s.toString().c_str());
        return exitCodeFor(s.code());
    }

    // Structured event log: episodes (admission saturation, accept
    // exhaustion, cache tier flips) as JSONL, correlated by trace id.
    eventlog::Options log_options;
    if (const char *s = flagValue(argc, argv, "--log-out"))
        log_options.path = s;
    if (const char *s = flagValue(argc, argv, "--log-level")) {
        if (!eventlog::parseLevel(s, &log_options.level)) {
            std::fprintf(stderr,
                         "apexd: unknown --log-level '%s' (expected "
                         "debug, info, warn or error)\n",
                         s);
            return 2;
        }
    }
    if (!eventlog::configure(log_options))
        return 2;

    // Tracing stays on for the daemon's lifetime: requests arrive at
    // any moment, and the per-request `trace` slice only exists if
    // spans were recorded when the request ran.  The collected-event
    // store is capped (oldest evicted), so this is bounded memory,
    // not a leak.
    telemetry::setTracingEnabled(true);

    const char *metrics_path = flagValue(argc, argv, "--metrics-out");
    std::unique_ptr<runtime::PeriodicMetricsWriter> periodic;
    if (flagValue(argc, argv, "--metrics-interval") != nullptr) {
        if (metrics_path == nullptr) {
            std::fprintf(stderr,
                         "apexd: --metrics-interval requires "
                         "--metrics-out FILE\n");
            return 2;
        }
        periodic = std::make_unique<runtime::PeriodicMetricsWriter>(
            metrics_path, metrics_interval_ms);
    }

    // Handlers go in before start(): a SIGTERM racing the startup
    // work (app-set load, cache open) must still reach the graceful
    // path below — the loop checks the latch before napping, so a
    // signal during start() falls straight through to server.stop()
    // and the final metrics dump.
    std::signal(SIGTERM, onShutdown);
    std::signal(SIGINT, onShutdown);

    service::Server server(options);
    if (const Status s = server.start(); !s.ok()) {
        std::fprintf(stderr, "apexd: %s\n", s.toString().c_str());
        return exitCodeFor(s.code());
    }
    std::fprintf(stderr, "apexd: %s\n",
                 service::versionString().c_str());
    std::fprintf(stderr, "apexd: listening on %s",
                 options.unix_path.c_str());
    if (server.tcpPort() > 0)
        std::fprintf(stderr, " and 127.0.0.1:%d", server.tcpPort());
    std::fprintf(stderr, "\n");

    while (g_shutdown == 0)
        ::poll(nullptr, 0, 200); // EINTR on a signal ends the nap.

    std::fprintf(stderr, "apexd: shutting down\n");
    server.stop();
    periodic.reset(); // Stop the flusher; the final dump is below.
    const Status dumped =
        metrics_path == nullptr
            ? Status::okStatus()
            : runtime::publishFile(
                  metrics_path, telemetry::Registry::instance().jsonDump(),
                  /*durable=*/false);
    if (!dumped.ok())
        std::fprintf(stderr, "apexd: %s\n", dumped.message().c_str());
    eventlog::shutdown(); // Flush + close the log file.
    return dumped.ok() ? 0 : 2;
}

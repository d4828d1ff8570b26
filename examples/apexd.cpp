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
 * src/service/server.hpp and DESIGN.md Sec. 7g).
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
 * --metrics-out FILE dumps the telemetry registry on exit;
 * --metrics-interval MS also rewrites it periodically (atomic
 * rename), so `apex.service.*` counters are observable while the
 * daemon runs.
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
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>

#include <poll.h>

#include "runtime/eventlog.hpp"
#include "runtime/telemetry.hpp"
#include "service/server.hpp"
#include "service/version.hpp"

namespace {

using namespace apex;

/** SIGTERM/SIGINT latch; the main thread polls it. */
volatile std::sig_atomic_t g_shutdown = 0;

extern "C" void
onShutdown(int /*signum*/)
{
    g_shutdown = 1;
}

const char *
flagValue(int argc, char **argv, const char *flag)
{
    for (int i = 0; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return nullptr;
}

bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 0; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
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
    if (const char *s = flagValue(argc, argv, "--tcp-port"))
        options.tcp_port = std::atoi(s);
    if (const char *s = flagValue(argc, argv, "--executors"))
        options.executors = std::atoi(s);
    if (const char *s = flagValue(argc, argv, "--jobs"))
        options.jobs = std::atoi(s);
    if (const char *s = flagValue(argc, argv, "--queue-depth"))
        options.queue_depth =
            static_cast<std::size_t>(std::atoi(s));
    if (const char *s = flagValue(argc, argv, "--cache-dir"))
        options.cache_dir = s;
    if (const char *s = flagValue(argc, argv, "--mem-budget"))
        options.mem_budget_bytes =
            static_cast<std::size_t>(std::atoll(s));
    if (const char *s = flagValue(argc, argv, "--session-cap"))
        options.session_cap = std::atoi(s);
    if (const char *s = flagValue(argc, argv, "--retry-after-ms"))
        options.retry_after_ms = std::atof(s);
    if (const char *s =
            flagValue(argc, argv, "--statusz-interval-ms"))
        options.statusz_interval_ms = std::atof(s);

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
    std::unique_ptr<telemetry::PeriodicMetricsWriter> periodic;
    if (const char *s = flagValue(argc, argv, "--metrics-interval")) {
        if (metrics_path == nullptr) {
            std::fprintf(stderr,
                         "apexd: --metrics-interval requires "
                         "--metrics-out FILE\n");
            return 2;
        }
        periodic = std::make_unique<telemetry::PeriodicMetricsWriter>(
            metrics_path, std::atof(s));
    }

    // Handlers go in before start(): a SIGTERM racing the startup
    // work (app-set load, cache open) must still reach the graceful
    // path below — the loop checks the latch before napping, so a
    // signal during start() falls straight through to server.stop()
    // and the metrics flush.
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
    if (periodic != nullptr) {
        periodic.reset(); // Destructor = final flush.
    } else if (metrics_path != nullptr) {
        std::ofstream os(metrics_path, std::ios::binary);
        os << telemetry::Registry::instance().jsonDump();
    }
    eventlog::shutdown(); // Flush + close the log file.
    return 0;
}

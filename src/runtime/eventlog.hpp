#ifndef APEX_RUNTIME_EVENTLOG_H_
#define APEX_RUNTIME_EVENTLOG_H_

#include <cstdint>
#include <string>
#include <string_view>

/**
 * @file
 * Structured event log: the one code path through which long-running
 * APEX processes (the daemon above all) report operational events.
 *
 * Each event is one JSONL line:
 *
 *     {"ts_ms":<unix epoch ms>,"level":"warn",
 *      "component":"service.admission",
 *      "message":"admission queue saturated (depth 8); shedding load",
 *      "trace_id":"00000000000000fe"}        // omitted when 0
 *
 * Properties (DESIGN.md Sec. 7i):
 *
 *  - **Leveled**: events below the configured level are dropped at
 *    the call site (one comparison; no formatting).
 *  - **Rate-bounded**: at most `rate_max_per_window` lines per
 *    `rate_window_ms` window; overflow is counted (counter
 *    `apex.log.suppressed`, the only tally of it) and summarized in
 *    one line when the window rolls, so a log storm costs bounded
 *    bytes and the loss is visible.  Call sites keep their own
 *    one-episode latches (queue saturation, cache disk tier) — the
 *    rate bound is the backstop, not the dedup mechanism.  A daemon
 *    exhaustion episode's line is its only record, next to the
 *    counter its call site bumps.
 *  - **Trace-correlated**: events carry the request trace id when the
 *    caller has one, so `grep trace_id daemon.log` follows a single
 *    request through admission, execution, and failure paths.
 *
 * Unconfigured (no configure() call, or an empty path), emit() falls
 * back to one plain line on stderr — batch CLI runs keep today's
 * human-readable diagnostics without opting into JSONL.
 *
 * Thread-safe: emit() may be called from any thread.  configure() and
 * shutdown() are process-setup APIs; call them from main().
 */

namespace apex::eventlog {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/** Lower-case level name ("debug", "info", "warn", "error"). */
const char *levelName(Level level);

/** Parse "debug"/"info"/"warn"/"error" (as in --log-level). */
bool parseLevel(std::string_view text, Level *out);

struct Options {
    std::string path;             ///< JSONL sink ("" = stderr JSONL).
    Level level = Level::kInfo;   ///< Minimum level emitted.
    double rate_window_ms = 1000; ///< Rate-bound window length.
    int rate_max_per_window = 200; ///< Max lines per window.
};

/** Install the structured sink.  False (with the reason on stderr)
 * when @p options.path cannot be opened for append; the previous
 * configuration (or the stderr fallback) then stays in effect. */
bool configure(const Options &options);

/** Flush + close the sink and return to the stderr fallback. */
void shutdown();

/** True after a successful configure() (structured mode). */
bool configured();

/** Emit one event.  @p component names the subsystem dot-path
 * ("service.admission", "cache", "worker"); @p trace_id ties the
 * event to a request (0 = none). */
void emit(Level level, std::string_view component,
          std::string_view message, std::uint64_t trace_id = 0);

} // namespace apex::eventlog

#endif // APEX_RUNTIME_EVENTLOG_H_

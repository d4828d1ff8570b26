#include "runtime/eventlog.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "runtime/telemetry.hpp"

namespace apex::eventlog {

namespace {

/** Sink state.  One mutex serializes writers; the hot filter (level)
 * is checked before taking it. */
struct Sink {
    std::mutex mu;
    std::FILE *file = nullptr; ///< Owned unless it is stderr.
    bool structured = false;   ///< configure() succeeded.
    Options options;
    // Rate-bound window (monotonic, so clock steps cannot widen it).
    std::uint64_t window_start_ns = 0;
    int window_lines = 0;
    long long window_suppressed = 0;
    std::atomic<int> min_level{static_cast<int>(Level::kInfo)};
};

Sink &
sink()
{
    static Sink *s = new Sink();
    return *s;
}

long long
wallMillis()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/** Render one JSONL line (no trailing newline). */
std::string
renderLine(Level level, std::string_view component,
           std::string_view message, std::uint64_t trace_id)
{
    std::string line;
    line.reserve(96 + component.size() + message.size());
    line += "{\"ts_ms\":";
    line += std::to_string(wallMillis());
    line += ",\"level\":\"";
    line += levelName(level);
    line += "\",\"component\":\"";
    telemetry::appendJsonEscaped(&line, component);
    line += "\",\"message\":\"";
    telemetry::appendJsonEscaped(&line, message);
    line += '"';
    if (trace_id != 0) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(trace_id));
        line += ",\"trace_id\":\"";
        line += buf;
        line += '"';
    }
    line += '}';
    return line;
}

/** Caller holds s.mu and the sink is structured.  Writes one line,
 * honoring the rate bound; rolls the window as needed. */
void
writeBounded(Sink &s, const std::string &line)
{
    const std::uint64_t now_ns = telemetry::monotonicNanos();
    const double window_ns =
        (s.options.rate_window_ms > 0 ? s.options.rate_window_ms
                                      : 1000.0) *
        1e6;
    if (static_cast<double>(now_ns - s.window_start_ns) >=
        window_ns) {
        if (s.window_suppressed > 0) {
            const std::string summary = renderLine(
                Level::kWarn, "eventlog",
                "rate bound: suppressed " +
                    std::to_string(s.window_suppressed) +
                    " line(s) in the last window",
                0);
            std::fprintf(s.file, "%s\n", summary.c_str());
        }
        s.window_start_ns = now_ns;
        s.window_lines = 0;
        s.window_suppressed = 0;
    }
    const int cap = s.options.rate_max_per_window > 0
                        ? s.options.rate_max_per_window
                        : 1;
    if (s.window_lines >= cap) {
        ++s.window_suppressed;
        static telemetry::Counter &suppressed =
            telemetry::counter("apex.log.suppressed");
        suppressed.add(1);
        return;
    }
    ++s.window_lines;
    std::fprintf(s.file, "%s\n", line.c_str());
    std::fflush(s.file);
}

} // namespace

const char *
levelName(Level level)
{
    switch (level) {
    case Level::kDebug:
        return "debug";
    case Level::kInfo:
        return "info";
    case Level::kWarn:
        return "warn";
    case Level::kError:
        return "error";
    }
    return "info";
}

bool
parseLevel(std::string_view text, Level *out)
{
    if (text == "debug")
        *out = Level::kDebug;
    else if (text == "info")
        *out = Level::kInfo;
    else if (text == "warn" || text == "warning")
        *out = Level::kWarn;
    else if (text == "error")
        *out = Level::kError;
    else
        return false;
    return true;
}

bool
configure(const Options &options)
{
    std::FILE *file = stderr;
    if (!options.path.empty()) {
        file = std::fopen(options.path.c_str(), "a");
        if (file == nullptr) {
            std::fprintf(stderr,
                         "apex: cannot open log file '%s'; keeping "
                         "previous log sink\n",
                         options.path.c_str());
            return false;
        }
    }
    Sink &s = sink();
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.file != nullptr && s.file != stderr)
        std::fclose(s.file);
    s.file = file;
    s.structured = true;
    s.options = options;
    s.window_start_ns = telemetry::monotonicNanos();
    s.window_lines = 0;
    s.window_suppressed = 0;
    s.min_level.store(static_cast<int>(options.level),
                      std::memory_order_relaxed);
    return true;
}

void
shutdown()
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.file != nullptr && s.file != stderr) {
        std::fflush(s.file);
        std::fclose(s.file);
    }
    s.file = nullptr;
    s.structured = false;
    s.min_level.store(static_cast<int>(Level::kInfo),
                      std::memory_order_relaxed);
}

bool
configured()
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lock(s.mu);
    return s.structured;
}

void
emit(Level level, std::string_view component,
     std::string_view message, std::uint64_t trace_id)
{
    Sink &s = sink();
    if (static_cast<int>(level) <
        s.min_level.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.structured) {
        // Fallback for processes that never opted into JSONL (batch
        // apexc): one human-readable stderr line, like the fprintf
        // calls this subsystem replaced.
        std::fprintf(stderr, "apex: [%.*s] %.*s\n",
                     static_cast<int>(component.size()),
                     component.data(),
                     static_cast<int>(message.size()),
                     message.data());
        return;
    }
    writeBounded(
        s, renderLine(level, component, message, trace_id));
}

} // namespace apex::eventlog

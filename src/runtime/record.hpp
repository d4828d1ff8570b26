#ifndef APEX_RUNTIME_RECORD_H_
#define APEX_RUNTIME_RECORD_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/status.hpp"
#include "runtime/wire.hpp"

/**
 * @file
 * How this project writes files.  publishFile() is the one way a
 * whole file is replaced — journal compaction, cache entries, metrics
 * dumps, traces, RTL, `apexc dump -o` — so no reader sees a partial
 * file and a failed write is a Status naming the path, never a
 * claimed success.
 *
 * RecordLog is the crash-safe write-ahead log of frames behind the
 * sweep journal (the frame format lives in runtime/wire.hpp).  Each
 * append writes one complete frame and flushes, so a crash (power
 * loss, kill -9) can only ever lose or mangle the *tail* frame, which
 * the decoder detects on the next open.  Replay keeps the frames
 * decoded before the first damage (a bad checksum, a torn or
 * oversized frame, a read error): a damaged tail is a recoverable
 * signal, not an error.  A recovered log is compacted back to its
 * valid prefix through publishFile(), durably.
 */

namespace apex::runtime {

/**
 * Replace the file at @p path with @p bytes: write
 * `<target>.tmp.<pid>.<tid>` and rename it over the target, so a
 * reader sees the old bytes or the new ones.  A symlink (dangling or
 * not) is followed, so the link survives; an existing FIFO or device
 * (`/dev/stdout`) is written in place.  With @p durable the tmp file
 * and the directory are fsynced (best effort), so the new bytes
 * survive a power loss.  Any failure removes the tmp file, leaves the
 * target untouched and returns kResourceExhausted naming @p path and
 * the OS reason.  Creates no directories and never consults the fault
 * injector.
 */
Status publishFile(const std::string &path, std::string_view bytes,
                   bool durable);

/**
 * Publishes telemetry::Registry::instance().jsonDump() to @p path
 * every @p interval_ms from a timer thread, so long-running processes
 * (apexd, `--metrics-interval` CLI runs) expose live metrics.  The
 * destructor stops the timer without flushing: each binary publishes
 * its final dump once, after its command.
 */
class PeriodicMetricsWriter {
  public:
    PeriodicMetricsWriter(std::string path, double interval_ms);
    ~PeriodicMetricsWriter(); ///< Stops the timer; no final flush.

    PeriodicMetricsWriter(const PeriodicMetricsWriter &) = delete;
    PeriodicMetricsWriter &
    operator=(const PeriodicMetricsWriter &) = delete;

    /** Synchronous flush (the timer calls this too).  False when the
     * dump could not be written: the failure is counted in
     * apex.resource.metrics_flush_failures and the previous good
     * file stays in place. */
    bool flushNow();

    /** Successful flushes so far. */
    long flushCount() const
    {
        return flushes_.load(std::memory_order_relaxed);
    }

  private:
    const std::string path_;
    std::atomic<long> flushes_{0};
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

/** What open() found on disk. */
enum class LogRecovery {
    kFresh,           ///< No usable prior log (new or truncated).
    kClean,           ///< Prior log replayed completely.
    kTailDropped,     ///< Prior log had a corrupt tail; prefix kept.
    kVersionMismatch, ///< Prior log is another schema; started fresh.
};

/**
 * Append-only, crash-safe record log.  Thread-safe appends; loading
 * happens once in open().  A write failure (disk full, I/O error)
 * deactivates the log — the file is truncated back to its last good
 * frame and the failure is latched in lastError() — and the *caller*
 * picks the policy: the sweep journal fails the sweep loudly rather
 * than silently running undurable (DESIGN.md Sec. 7h).
 */
class RecordLog {
  public:
    RecordLog() = default;
    RecordLog(const RecordLog &) = delete;
    RecordLog &operator=(const RecordLog &) = delete;

    /**
     * Open @p path for appending.  With @p replay, existing frames of
     * the same magic/version are loaded into records() first and a
     * damaged tail is dropped (the file is compacted to the valid
     * prefix through publishFile()); without it, or when the first
     * frame is of another schema version, the log is restarted
     * empty.
     */
    Status open(const std::string &path, std::string_view magic,
                int version, bool replay);

    /** True when open() succeeded and appends will hit disk. */
    bool active() const { return out_.is_open(); }

    /** How open() recovered the prior log. */
    LogRecovery recovery() const { return recovery_; }

    /** Frames replayed by open(). */
    const std::vector<FramedRecord> &records() const {
        return records_;
    }

    /**
     * Append one frame and flush it to the OS.  Thread-safe.  Every
     * write and flush is checked: a failure (ENOSPC, EIO) truncates
     * the file back to the last fully-flushed frame, closes the log
     * (active() turns false, later appends return the latched error)
     * and reports kResourceExhausted — a torn frame is never left on
     * disk ahead of further appends, where it would make the whole
     * suffix unreadable on the next open.
     */
    Status append(std::string_view type, std::string_view payload);

    /** The error that deactivated the log (ok while healthy). */
    Status lastError() const;

    const std::string &path() const { return path_; }

  private:
    /** Latch @p error, truncate the torn tail, close the stream.
     * Caller holds mutex_. */
    Status failAppend(Status error);

    std::string path_;
    std::string magic_;
    int version_ = 0;
    LogRecovery recovery_ = LogRecovery::kFresh;
    std::vector<FramedRecord> records_;
    mutable std::mutex mutex_;
    std::ofstream out_;
    /** Bytes of fully-flushed frames — the truncation point that
     * repairs the file after a failed append. */
    std::uintmax_t committed_bytes_ = 0;
    Status last_error_;
};

} // namespace apex::runtime

#endif // APEX_RUNTIME_RECORD_H_

#ifndef APEX_RUNTIME_RECORD_H_
#define APEX_RUNTIME_RECORD_H_

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.hpp"
#include "runtime/wire.hpp"

/**
 * @file
 * Crash-safe write-ahead log of frames — the durability substrate of
 * the sweep journal.  The frame format and its decoder live in
 * runtime/wire.hpp; this module only adds the log discipline.
 *
 * Each append writes one complete frame and flushes, so a crash
 * (power loss, kill -9) can only ever lose or mangle the *tail*
 * frame, which the decoder detects on the next open.  Replay keeps
 * the frames decoded before the first damage (a bad checksum, a
 * torn or oversized frame, a read error): a damaged tail is a
 * recoverable signal, not an error.  A recovered log is compacted
 * back to its valid prefix with write-then-rename, so readers never
 * observe a partial file.
 */

namespace apex::runtime {

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
     * prefix via write-then-rename); without it, or when the first
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

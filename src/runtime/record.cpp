#include "runtime/record.hpp"

#include <filesystem>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "core/fault.hpp"
#include "runtime/telemetry.hpp"

namespace apex::runtime {

namespace fs = std::filesystem;

namespace {

/** fsync @p path (best effort — crash-safety hardening must not turn
 * an otherwise-working log into an error). */
void
syncPath(const std::string &path, bool directory)
{
    const int fd =
        ::open(path.c_str(),
               directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
    if (fd < 0)
        return;
    ::fsync(fd);
    ::close(fd);
}

/** Remove stale compaction temporaries (`<log>.tmp.*`) left behind by
 * a crash between the tmp write and the rename. */
void
removeStaleTemporaries(const std::string &path)
{
    const fs::path p(path);
    const std::string prefix = p.filename().string() + ".tmp.";
    std::error_code ec;
    fs::directory_iterator it(p.parent_path(), ec);
    if (ec)
        return;
    for (const auto &entry : it) {
        if (entry.path().filename().string().rfind(prefix, 0) == 0)
            fs::remove(entry.path(), ec);
    }
}

} // namespace

Status
RecordLog::open(const std::string &path, std::string_view magic,
                int version, bool replay)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (out_.is_open())
        return Status(ErrorCode::kInvalidArgument,
                      "record log already open at '" + path_ + "'");
    path_ = path;
    magic_ = std::string(magic);
    version_ = version;
    records_.clear();
    recovery_ = LogRecovery::kFresh;
    committed_bytes_ = 0;
    last_error_ = Status::okStatus();

    {
        std::error_code ec;
        fs::create_directories(fs::path(path).parent_path(), ec);
        // A failing mkdir surfaces as the ofstream failing below.
    }
    // A crash between a compaction's tmp write and its rename leaves
    // an orphan tmp file; clear them before (not after) recovery so
    // this open's own tmp is never collected.
    removeStaleTemporaries(path_);

    bool compact = false;
    if (replay) {
        const int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
        if (fd >= 0) {
            FrameDecoder decoder(magic_, version_);
            const bool clean = decodeFile(fd, decoder, &records_);
            ::close(fd);
            if (!clean) {
                // A mismatched version on the *first* frame means the
                // whole log is another schema: restart it.  Anything
                // else — corruption, a torn frame, a read error, or
                // skew mid-file — is a damaged tail: keep the valid
                // prefix, drop the rest.
                compact = true;
                if (decoder.versionMismatch() && records_.empty()) {
                    recovery_ = LogRecovery::kVersionMismatch;
                } else {
                    recovery_ = LogRecovery::kTailDropped;
                    telemetry::counter("apex.record.tail_drops").add(1);
                }
            } else if (!records_.empty()) {
                recovery_ = LogRecovery::kClean;
            }
        }
    }

    if (compact || !replay) {
        // Rewrite the valid prefix (possibly empty) atomically so a
        // crash during recovery cannot make the log worse.
        std::ostringstream tid;
        tid << std::this_thread::get_id();
        const std::string tmp = path_ + ".tmp." + tid.str();
        {
            std::ofstream os(tmp,
                             std::ios::binary | std::ios::trunc);
            if (!os)
                return Status(ErrorCode::kResourceExhausted,
                              "cannot write record log at '" + tmp +
                                  "'");
            for (const FramedRecord &r : records_) {
                os << encodeFrame(magic_, version_, r.type,
                                  r.payload);
                if (!os)
                    break; // One failing frame fails the compaction.
            }
            os.flush();
            if (!os)
                return Status(ErrorCode::kResourceExhausted,
                              "short write compacting record log '" +
                                  tmp + "' (disk full?)");
        }
        // Write-then-rename alone is not crash-safe: the tmp's bytes
        // must be on disk before the rename points the log name at
        // them, and the rename itself lives in the directory, which
        // has its own durability.  fsync both (best effort).
        syncPath(tmp, /*directory=*/false);
        std::error_code ec;
        fs::rename(tmp, path_, ec);
        if (ec) {
            fs::remove(tmp, ec);
            return Status(ErrorCode::kResourceExhausted,
                          "cannot replace record log '" + path_ +
                              "': " + ec.message());
        }
        const fs::path parent = fs::path(path_).parent_path();
        if (!parent.empty())
            syncPath(parent.string(), /*directory=*/true);
    }

    out_.open(path_, std::ios::binary | std::ios::app);
    if (!out_)
        return Status(ErrorCode::kInternal,
                      "cannot open record log '" + path_ +
                          "' for append");
    {
        std::error_code ec;
        const std::uintmax_t size = fs::file_size(path_, ec);
        committed_bytes_ = ec ? 0 : size;
    }
    return Status::okStatus();
}

Status
RecordLog::failAppend(Status error)
{
    telemetry::counter("apex.record.append_failures").add(1);
    last_error_ = error;
    out_.close();
    // Cut the file back to the last fully-flushed frame.  Shrinking
    // needs no free space, so this works on the full disk that broke
    // the append; the next open() then replays a clean log instead
    // of dropping a corrupt tail.
    (void)::truncate(path_.c_str(),
                     static_cast<off_t>(committed_bytes_));
    return error;
}

Status
RecordLog::append(std::string_view type, std::string_view payload)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!out_.is_open())
        return last_error_.ok()
                   ? Status(ErrorCode::kInternal,
                            "record log is not open")
                   : last_error_;
    const std::string frame =
        encodeFrame(magic_, version_, type, payload);
    if (const Status f = checkFault(FaultStage::kDiskFull); !f.ok()) {
        // Rehearse ENOSPC mid-frame: half the frame reaches the file
        // before the write dies, exactly the torn tail a real full
        // disk leaves behind.
        out_.write(frame.data(),
                   static_cast<std::streamsize>(frame.size() / 2));
        out_.flush();
        return failAppend(
            Status(f.code(), "append to record log '" + path_ +
                                 "' failed: " + f.message()));
    }
    out_.write(frame.data(),
               static_cast<std::streamsize>(frame.size()));
    if (out_)
        out_.flush();
    if (!out_)
        return failAppend(Status(
            ErrorCode::kResourceExhausted,
            "append to record log '" + path_ +
                "' failed (disk full or I/O error); log closed at "
                "last good frame"));
    committed_bytes_ += frame.size();
    return Status::okStatus();
}

Status
RecordLog::lastError() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return last_error_;
}

} // namespace apex::runtime

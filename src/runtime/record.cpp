#include "runtime/record.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/fault.hpp"
#include "runtime/telemetry.hpp"

namespace apex::runtime {

namespace fs = std::filesystem;

namespace {

/** @p path with every symlink followed, dangling ones included. */
std::string
resolveLinks(fs::path path)
{
    std::error_code ec;
    for (int hop = 0; hop < 40 && fs::is_symlink(path, ec); ++hop)
        path = path.parent_path() / fs::read_symlink(path, ec);
    return path.string();
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
publishFile(const std::string &path, std::string_view bytes,
            bool durable)
{
    const auto fail = [&path](const char *what, const std::string &why) {
        return Status(ErrorCode::kResourceExhausted,
                      std::string("cannot ") + what + " '" + path +
                          "': " + why);
    };
    // A FIFO or a device has nothing to replace atomically, and
    // renaming over it would swap the node itself: write in place.
    struct stat st;
    const bool in_place = ::stat(path.c_str(), &st) == 0 &&
                          !S_ISREG(st.st_mode) && !S_ISDIR(st.st_mode);
    // Otherwise write-then-rename; the per-process, per-thread tmp
    // name keeps concurrent writers of one target apart.
    const std::string target = resolveLinks(path);
    std::ostringstream name;
    name << target << ".tmp." << ::getpid() << '.'
         << std::this_thread::get_id();
    const std::string tmp = in_place ? path : name.str();
    const int fd =
        ::open(tmp.c_str(),
               in_place ? O_WRONLY | O_CLOEXEC
                        : O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0666);
    if (fd < 0)
        return fail(in_place ? "open" : "create", std::strerror(errno));
    Status s = writeAll(fd, bytes);
    if (!s.ok())
        s = fail("write", s.message());
    else if (durable && !in_place)
        (void)::fsync(fd); // The bytes reach the disk before the name.
    if (::close(fd) != 0 && s.ok())
        s = fail("write", std::strerror(errno));
    if (in_place)
        return s;
    if (s.ok() && ::rename(tmp.c_str(), target.c_str()) != 0)
        s = fail("replace", std::strerror(errno));
    if (!s.ok()) {
        ::unlink(tmp.c_str());
        return s;
    }
    if (durable) {
        // The rename lives in the directory, which has its own
        // durability.  Both syncs are best effort: hardening must not
        // turn an otherwise-working write into an error.
        const std::string dir = fs::path(target).parent_path().string();
        const int dfd =
            ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
        if (dfd >= 0) {
            ::fsync(dfd);
            ::close(dfd);
        }
    }
    return s;
}

PeriodicMetricsWriter::PeriodicMetricsWriter(std::string path,
                                             double interval_ms)
    : path_(std::move(path))
{
    const std::chrono::duration<double, std::milli> interval(
        interval_ms > 0 ? interval_ms : 1000.0);
    thread_ = std::thread([this, interval] {
        std::unique_lock<std::mutex> lock(mu_);
        while (!cv_.wait_for(lock, interval, [this] { return stop_; })) {
            lock.unlock();
            (void)flushNow();
            lock.lock();
        }
    });
}

PeriodicMetricsWriter::~PeriodicMetricsWriter()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

bool
PeriodicMetricsWriter::flushNow()
{
    // A failed flush leaves the previous good file in place, and the
    // timer simply tries again next interval.
    if (!checkFault(FaultStage::kDiskFull).ok() ||
        !publishFile(path_, telemetry::Registry::instance().jsonDump(),
                     /*durable=*/false)
             .ok()) {
        telemetry::counter("apex.resource.metrics_flush_failures")
            .add(1);
        return false;
    }
    flushes_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

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
        // A failing mkdir surfaces as the writes below failing.
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
        // Rewrite the valid prefix (possibly empty) atomically and
        // durably, so a crash during recovery cannot make the log
        // worse.
        std::string prefix;
        for (const FramedRecord &r : records_)
            prefix += encodeFrame(magic_, version_, r.type, r.payload);
        if (Status s = publishFile(path_, prefix, /*durable=*/true);
            !s.ok())
            return s;
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

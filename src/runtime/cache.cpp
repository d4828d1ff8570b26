#include "runtime/cache.hpp"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include "core/fault.hpp"
#include "runtime/eventlog.hpp"
#include "runtime/record.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/wire.hpp"

namespace apex::runtime {

namespace fs = std::filesystem;

namespace {

/** On-disk entry schema: bump when the framing or payload layout of
 * disk entries changes.  Old entries then read as version mismatches
 * (counted, treated as misses) instead of being misparsed. */
constexpr std::string_view kCacheMagic = "apexcache";
constexpr int kCacheVersion = 2;

/** The process-wide `apex.cache.*` counters. */
struct CacheCounters {
    telemetry::Counter &hits = telemetry::counter("apex.cache.hits");
    telemetry::Counter &misses =
        telemetry::counter("apex.cache.misses");
    telemetry::Counter &memory_hits =
        telemetry::counter("apex.cache.memory_hits");
    telemetry::Counter &disk_hits =
        telemetry::counter("apex.cache.disk_hits");
    telemetry::Counter &insertions =
        telemetry::counter("apex.cache.insertions");
    telemetry::Counter &evictions =
        telemetry::counter("apex.cache.evictions");
    telemetry::Counter &disk_writes =
        telemetry::counter("apex.cache.disk_writes");
    telemetry::Counter &corrupt_dropped =
        telemetry::counter("apex.cache.corrupt_dropped");
    telemetry::Counter &version_mismatches =
        telemetry::counter("apex.cache.version_mismatches");
};

CacheCounters &
cacheCounters()
{
    static CacheCounters *counters = new CacheCounters();
    return *counters;
}

/** Remove the entry and probe tmp files (`<name>.tmp.<pid>.<tid>`,
 * see publishFile) whose writer died between the write and the
 * rename.  A live pid's file stays, since that writer may be
 * mid-write, and so does every other file: the sweep journal sharing
 * the directory clears its own. */
void
removeOrphanedTemporaries(const std::string &dir)
{
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        const std::string name = it->path().filename().string();
        const std::size_t tmp = name.find(".tmp.");
        if (tmp == std::string::npos)
            continue;
        const std::string_view owner(name.data(), tmp);
        if (!owner.ends_with(".apexcache") && owner != ".apexprobe")
            continue;
        const long pid = std::strtol(name.c_str() + tmp + 5, nullptr, 10);
        if (pid > 0 && ::kill(static_cast<pid_t>(pid), 0) != 0 &&
            errno == ESRCH) {
            std::error_code ignored;
            fs::remove(it->path(), ignored);
        }
    }
}

} // namespace

ArtifactCache::ArtifactCache(CacheOptions options)
    : options_(std::move(options))
{
    // Surface the degradation latch in every metrics dump from the
    // start, so observers can alert on 0 -> 1 instead of on absence.
    if (!options_.disk_dir.empty())
        telemetry::gauge("apex.cache.disk_disabled").set(0.0);
}

std::string
ArtifactCache::diskPathFor(const std::string &key) const
{
    return (fs::path(options_.disk_dir) /
            (hex64(fnv1a64(key)) + ".apexcache"))
        .string();
}

void
ArtifactCache::insertMemory(const std::string &key, std::string value)
{
    // Caller holds mutex_.
    if (options_.max_memory_entries == 0)
        return;
    if (auto it = index_.find(key); it != index_.end()) {
        it->second->second = std::move(value);
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.emplace_front(key, std::move(value));
    index_[key] = lru_.begin();
    while (lru_.size() > options_.max_memory_entries) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        cacheCounters().evictions.add(1);
    }
}

std::optional<std::string>
ArtifactCache::get(const std::string &key)
{
    APEX_SPAN("cache.get");
    CacheCounters &counters = cacheCounters();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (auto it = index_.find(key); it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            counters.hits.add(1);
            counters.memory_hits.add(1);
            return it->second->second;
        }
    }
    if (diskUsable()) {
        if (auto value = getFromDisk(key)) {
            std::lock_guard<std::mutex> lock(mutex_);
            insertMemory(key, *value);
            counters.hits.add(1);
            counters.disk_hits.add(1);
            return value;
        }
    }
    counters.misses.add(1);
    return std::nullopt;
}

void
ArtifactCache::put(const std::string &key, const std::string &value)
{
    APEX_SPAN("cache.put");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        cacheCounters().insertions.add(1);
        insertMemory(key, value);
    }
    if (diskUsable())
        putToDisk(key, value);
}

std::optional<std::string>
ArtifactCache::getFromDisk(const std::string &key)
{
    const std::string path = diskPathFor(key);
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return std::nullopt;
    FrameDecoder decoder(kCacheMagic, kCacheVersion);
    std::vector<FramedRecord> frames;
    const bool clean = decodeFile(fd, decoder, &frames);
    ::close(fd);

    auto drop = [&](telemetry::Counter &counter)
        -> std::optional<std::string> {
        std::error_code ec;
        fs::remove(path, ec);
        counter.add(1);
        return std::nullopt;
    };
    // An intact entry from another schema version: count it apart
    // from corruption so upgrades over an old dir are observable.
    if (decoder.versionMismatch())
        return drop(cacheCounters().version_mismatches);
    if (!clean || frames.size() != 1)
        return drop(cacheCounters().corrupt_dropped);

    // Payload layout: "key <len>\n<key bytes><value bytes>".  The
    // embedded key disambiguates file-name hash collisions; it is
    // compared in place against the requested one, so no length read
    // from disk sizes anything.
    const std::string_view payload = frames.front().payload;
    const std::string header =
        "key " + std::to_string(key.size()) + '\n';
    if (!payload.starts_with(header) ||
        !payload.substr(header.size()).starts_with(key))
        return drop(cacheCounters().corrupt_dropped);
    return std::string(payload.substr(header.size() + key.size()));
}

void
ArtifactCache::putToDisk(const std::string &key,
                         const std::string &value)
{
    if (const Status f = checkFault(FaultStage::kDiskFull); !f.ok()) {
        disableDisk(f.message());
        return;
    }
    bool dir_ready;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!disk_dir_ready_) {
            std::error_code ec;
            fs::create_directories(options_.disk_dir, ec);
            disk_dir_ready_ = !ec;
        }
        dir_ready = disk_dir_ready_;
    }
    if (!dir_ready) {
        disableDisk("cannot create cache directory '" +
                    options_.disk_dir + "'");
        return;
    }
    const std::string payload =
        "key " + std::to_string(key.size()) + '\n' + key + value;
    if (Status s = publishFile(
            diskPathFor(key),
            encodeFrame(kCacheMagic, kCacheVersion, "entry", payload),
            /*durable=*/false);
        !s.ok()) {
        disableDisk(s.message());
        return;
    }
    cacheCounters().disk_writes.add(1);
}

void
ArtifactCache::disableDisk(const std::string &why)
{
    telemetry::counter("apex.cache.disk_write_failures").add(1);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (disk_disabled_)
            return; // Already latched: one log line per episode.
        disk_disabled_ = true;
        const double ms = options_.disk_reprobe_ms;
        next_probe_ =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::milli>(
                    ms > 0 ? ms : 0.0));
    }
    telemetry::gauge("apex.cache.disk_disabled").set(1.0);
    eventlog::emit(eventlog::Level::kWarn, "cache",
                   "disk tier disabled (" + why +
                       "); continuing memory-only",
                   telemetry::currentTraceId());
}

bool
ArtifactCache::diskUsable()
{
    if (options_.disk_dir.empty())
        return false;
    std::call_once(orphans_collected_, removeOrphanedTemporaries,
                   options_.disk_dir);
    std::unique_lock<std::mutex> lock(mutex_);
    if (!disk_disabled_)
        return true;
    if (options_.disk_reprobe_ms < 0)
        return false; // Re-probing turned off: memory-only for good.
    const auto now = std::chrono::steady_clock::now();
    if (now < next_probe_)
        return false;
    // Claim this probe window before dropping the lock, so a burst of
    // concurrent accesses performs one probe, not a stampede.
    next_probe_ =
        now + std::chrono::duration_cast<
                  std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(
                      options_.disk_reprobe_ms));
    lock.unlock();

    // A tiny real write is the only trustworthy "space is back"
    // signal; a statvfs free-block count can be stale under quota.
    const std::string probe =
        (fs::path(options_.disk_dir) / ".apexprobe").string();
    const bool ok =
        publishFile(probe, "apexprobe\n", /*durable=*/false).ok();
    std::error_code ec;
    fs::remove(probe, ec);
    if (!ok)
        return false;

    lock.lock();
    disk_disabled_ = false;
    telemetry::gauge("apex.cache.disk_disabled").set(0.0);
    telemetry::counter("apex.cache.disk_reenabled").add(1);
    eventlog::emit(eventlog::Level::kInfo, "cache",
                   "disk tier re-enabled (probe write succeeded)");
    return true;
}

bool
ArtifactCache::diskDisabled() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return disk_disabled_;
}

std::size_t
ArtifactCache::memoryEntries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

} // namespace apex::runtime

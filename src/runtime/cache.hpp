#ifndef APEX_RUNTIME_CACHE_H_
#define APEX_RUNTIME_CACHE_H_

#include <chrono>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

/**
 * @file
 * Content-addressed artifact cache for the DSE runtime.
 *
 * Stage results (mapping / place-and-route evaluations) are memoized
 * under a key derived from the canonical content of their inputs — a
 * fingerprint of the IR graph plus every stage parameter — so a key
 * hit is a proof that recomputation would produce the same artifact.
 *
 * Two tiers:
 *  - an in-memory LRU tier (bounded entry count, thread-safe);
 *  - an optional write-through on-disk tier (--cache-dir) so repeated
 *    sweeps across process runs become incremental.  Each disk entry
 *    is one frame (runtime/wire.hpp, the format the sweep journal,
 *    the worker pipes and the service sockets share), read back
 *    through the same bounded FrameDecoder: the frame header records
 *    the schema version and an FNV-1a checksum, and the payload
 *    embeds the full key.  Any mismatch (truncation, bit rot, a
 *    forged length, key collision on file name) deletes the file and
 *    counts as a miss, and an entry written by another schema
 *    version is dropped as a version mismatch — a stale or corrupt
 *    cache can cost time, never correctness.  Entries are published
 *    by write-then-rename; a writer killed in between leaves a tmp
 *    file, which the first disk access removes once that writer's
 *    process is gone.
 *    A *write* failure (disk full, I/O error) latches the tier off:
 *    the cache continues memory-only with the
 *    `apex.cache.disk_disabled` gauge raised, and a periodic probe
 *    write re-enables the tier when space returns (see
 *    CacheOptions::disk_reprobe_ms and DESIGN.md Sec. 7h).
 *
 * Values are opaque byte strings; serialization of the artifact is
 * the caller's contract (see core/evaluate.cpp).
 */

namespace apex::runtime {

/** Cache configuration. */
struct CacheOptions {
    /** In-memory LRU capacity in entries (0 disables the tier). */
    std::size_t max_memory_entries = 4096;
    /** On-disk tier directory; empty disables the tier.  Created on
     * first use.  (The `{}` lets designated initializers omit it
     * without a -Wmissing-field-initializers warning.) */
    std::string disk_dir{};
    /**
     * After a disk-tier write failure (disk full, I/O error) the
     * tier drops to memory-only; every this-many milliseconds the
     * next access re-probes the directory with a tiny write and
     * re-enables the tier when it succeeds — so a sweep survives a
     * transient full disk and recovers when space returns.  0 probes
     * on every access (tests); < 0 never re-probes.
     */
    double disk_reprobe_ms = 2000.0;
};

/**
 * Two-tier content-addressed memoization cache.  Its traffic is
 * counted process-wide in the telemetry registry: `apex.cache.hits`
 * (either tier), `misses`, `memory_hits`, `disk_hits`, `insertions`
 * (put() calls), `evictions` (LRU capacity), `disk_writes`,
 * `corrupt_dropped` (disk entries rejected and deleted) and
 * `version_mismatches` (disk entries of another schema version,
 * dropped and treated as misses).
 */
class ArtifactCache {
  public:
    explicit ArtifactCache(CacheOptions options = {});

    ArtifactCache(const ArtifactCache &) = delete;
    ArtifactCache &operator=(const ArtifactCache &) = delete;

    /** Look up @p key; a disk hit is promoted into the LRU tier. */
    std::optional<std::string> get(const std::string &key);

    /** Insert (or refresh) @p key -> @p value in both tiers. */
    void put(const std::string &key, const std::string &value);

    std::size_t memoryEntries() const;

    /** Path the disk tier uses for @p key (exposed for tests). */
    std::string diskPathFor(const std::string &key) const;

    /** True while the disk tier is latched off after a write failure
     * (the `apex.cache.disk_disabled` gauge mirrors this). */
    bool diskDisabled() const;

    const CacheOptions &options() const { return options_; }

  private:
    std::optional<std::string> getFromDisk(const std::string &key);
    void putToDisk(const std::string &key, const std::string &value);
    void insertMemory(const std::string &key, std::string value);
    /** Latch the disk tier off after a failed write. */
    void disableDisk(const std::string &why);
    /** True when the disk tier may be used for this access: enabled,
     * or disabled-but-due for a re-probe that just succeeded.  The
     * first call collects the tmp files of dead writers. */
    bool diskUsable();

    CacheOptions options_;
    mutable std::mutex mutex_;
    /** Front = most recently used. */
    std::list<std::pair<std::string, std::string>> lru_;
    std::map<std::string,
             std::list<std::pair<std::string, std::string>>::iterator>
        index_;
    std::once_flag orphans_collected_;
    bool disk_dir_ready_ = false;
    /** Disk-tier degradation latch (guarded by mutex_). */
    bool disk_disabled_ = false;
    /** Monotonic deadline for the next recovery probe. */
    std::chrono::steady_clock::time_point next_probe_{};
};

} // namespace apex::runtime

#endif // APEX_RUNTIME_CACHE_H_

/**
 * Tests for the parallel DSE runtime: the work-stealing thread pool,
 * the content-addressed artifact cache, the file publisher and the
 * periodic metrics writer built on it, and the determinism contract
 * of the parallel sweep driver (identical results for any job count).
 */
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "core/evaluate.hpp"
#include "core/explorer.hpp"
#include "core/fault.hpp"
#include "core/sweep.hpp"
#include "model/tech.hpp"
#include "runtime/cache.hpp"
#include "runtime/record.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/thread_pool.hpp"
#include "frame_forge.hpp"

namespace {

using namespace apex;
namespace fs = std::filesystem;

/** Unique scratch dir per test and process (two runs of the suite
 * on one host must not share one), removed on scope exit. */
class ScratchDir {
  public:
    explicit ScratchDir(const std::string &tag)
        : path_(fs::temp_directory_path() /
                ("apex_runtime_test_" + tag + "_" +
                 std::to_string(::getpid())))
    {
        fs::remove_all(path_);
    }
    ~ScratchDir() { fs::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

// --- ThreadPool --------------------------------------------------------

TEST(ThreadPool, StressTenThousandTasks)
{
    runtime::ThreadPool pool(8);
    constexpr int kTasks = 10000;
    std::vector<int> hits(kTasks, 0);
    runtime::parallelFor(&pool, kTasks, [&](int i) { hits[i] += 1; });
    // Every index ran exactly once — no drops, no double-claims.
    // (Pool counters are not asserted: helper drain tasks may still
    // be queued when parallelFor returns.)
    for (int i = 0; i < kTasks; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, SequentialPoolRunsInline)
{
    runtime::ThreadPool pool(1);
    std::atomic<int> ran{0};
    pool.submit([&] { ++ran; });
    // parallelism <= 1: submit() executes before returning.
    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(pool.parallelism(), 1);
}

TEST(ThreadPool, DefaultParallelismTakesOnlyAWholePositiveJobsValue)
{
    const char *saved = std::getenv("APEX_JOBS");
    const std::string restore = saved != nullptr ? saved : "";
    ::unsetenv("APEX_JOBS");
    const int hardware = runtime::ThreadPool::defaultParallelism();
    const std::pair<const char *, int> cases[] = {
        {"3", 3},          {"17", 17},       {"0", hardware},
        {"-2", hardware},  {"abc", hardware}, {"3x", hardware},
        {" 3", hardware},  {"", hardware},
    };
    for (const auto &[value, want] : cases) {
        ::setenv("APEX_JOBS", value, 1);
        EXPECT_EQ(runtime::ThreadPool::defaultParallelism(), want)
            << "APEX_JOBS='" << value << "'";
    }
    // A pool for jobs <= 0 takes the default; one lane is no pool.
    ::setenv("APEX_JOBS", "1", 1);
    EXPECT_EQ(runtime::makePool(0), nullptr);
    EXPECT_EQ(runtime::makePool(1), nullptr);
    EXPECT_EQ(runtime::makePool(3)->parallelism(), 3);
    if (saved != nullptr)
        ::setenv("APEX_JOBS", restore.c_str(), 1);
    else
        ::unsetenv("APEX_JOBS");
}

TEST(ThreadPool, ParallelForPropagatesFirstException)
{
    runtime::ThreadPool pool(4);
    try {
        runtime::parallelFor(&pool, 64, [&](int i) {
            if (i % 7 == 3)
                throw std::runtime_error("boom " + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        // Lowest failing index wins, independent of interleaving.
        EXPECT_STREQ(e.what(), "boom 3");
    }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    runtime::ThreadPool pool(4);
    std::atomic<int> total{0};
    runtime::parallelFor(&pool, 16, [&](int) {
        runtime::parallelFor(&pool, 16, [&](int) { ++total; });
    });
    EXPECT_EQ(total.load(), 256);
}

// --- ArtifactCache -----------------------------------------------------

/** How far each process-wide `apex.cache.*` counter has moved since
 * this snapshot was taken: the traffic of the caches a test runs. */
class CacheCounterDelta {
  public:
    CacheCounterDelta()
    {
        for (const char *name : {"hits", "misses", "memory_hits",
                                 "disk_hits", "evictions",
                                 "corrupt_dropped", "version_mismatches"})
            start_[name] = value(name);
    }
    long long operator[](const std::string &name) const
    {
        return value(name) - start_.at(name);
    }

  private:
    static long long value(const std::string &name)
    {
        return telemetry::counter("apex.cache." + name).value();
    }
    std::map<std::string, long long> start_;
};

TEST(ArtifactCache, MemoryHitAndMiss)
{
    const CacheCounterDelta counted;
    runtime::ArtifactCache cache;
    EXPECT_FALSE(cache.get("k").has_value());
    cache.put("k", "value");
    const auto hit = cache.get("k");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "value");
    EXPECT_EQ(counted["hits"], 1);
    EXPECT_EQ(counted["misses"], 1);
    EXPECT_EQ(counted["memory_hits"], 1);
}

TEST(ArtifactCache, LruEvictsOldestFirst)
{
    const CacheCounterDelta counted;
    runtime::ArtifactCache cache({.max_memory_entries = 2});
    cache.put("a", "1");
    cache.put("b", "2");
    (void)cache.get("a"); // refresh a; b is now the LRU entry
    cache.put("c", "3");  // evicts b
    EXPECT_TRUE(cache.get("a").has_value());
    EXPECT_FALSE(cache.get("b").has_value());
    EXPECT_TRUE(cache.get("c").has_value());
    EXPECT_EQ(counted["evictions"], 1);
    EXPECT_EQ(cache.memoryEntries(), 2u);
}

TEST(ArtifactCache, DiskTierSurvivesNewProcessImage)
{
    ScratchDir dir("disk");
    const CacheCounterDelta counted;
    {
        runtime::ArtifactCache writer({.disk_dir = dir.str()});
        writer.put("key1", "payload one");
    }
    // A fresh cache instance stands in for a fresh process.
    runtime::ArtifactCache reader({.disk_dir = dir.str()});
    const auto hit = reader.get("key1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "payload one");
    EXPECT_EQ(counted["disk_hits"], 1);
    // The disk hit was promoted into memory.
    (void)reader.get("key1");
    EXPECT_EQ(counted["memory_hits"], 1);
}

TEST(ArtifactCache, CorruptDiskEntryIsDroppedNotServed)
{
    ScratchDir dir("corrupt");
    const CacheCounterDelta counted;
    runtime::ArtifactCache writer({.disk_dir = dir.str()});
    writer.put("key1", "payload one");

    const std::string path = writer.diskPathFor("key1");
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << "apexcache 2 entry sum deadbeefdeadbeef len 11\n"
              "wrong bytes\n";
    }
    runtime::ArtifactCache reader({.disk_dir = dir.str()});
    EXPECT_FALSE(reader.get("key1").has_value());
    EXPECT_EQ(counted["corrupt_dropped"], 1);
    EXPECT_EQ(counted["misses"], 1);
    // The poisoned file was deleted, not left to fail forever.
    EXPECT_FALSE(fs::exists(path));
}

TEST(ArtifactCache, ForgedLengthIsDroppedNotAllocated)
{
    // A length field no reader may honor: the entry is corruption
    // like any other — a miss, deleted, counted — never an
    // allocation of the forged size.
    ScratchDir dir("forgedlen");
    const CacheCounterDelta counted;
    runtime::ArtifactCache writer({.disk_dir = dir.str()});
    writer.put("key1", "payload one");
    const std::string path = writer.diskPathFor("key1");
    test::forgeFrameLength(path, 0);

    runtime::ArtifactCache reader({.disk_dir = dir.str()});
    EXPECT_FALSE(reader.get("key1").has_value());
    EXPECT_EQ(counted["corrupt_dropped"], 1);
    EXPECT_EQ(counted["misses"], 1);
    EXPECT_FALSE(fs::exists(path));
}

TEST(ArtifactCache, StaleSchemaVersionIsAMissNotGarbage)
{
    ScratchDir dir("verskew");
    const CacheCounterDelta counted;
    runtime::ArtifactCache writer({.disk_dir = dir.str()});
    writer.put("key1", "payload one");

    // A v1-era entry left behind by an older build: right magic,
    // different schema version.  It must read as a version mismatch
    // (counted separately), never as deserialized garbage.
    const std::string path = writer.diskPathFor("key1");
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << "apexcache 1\nkey1 11\npayload one\n";
    }
    runtime::ArtifactCache reader({.disk_dir = dir.str()});
    EXPECT_FALSE(reader.get("key1").has_value());
    EXPECT_EQ(counted["version_mismatches"], 1);
    EXPECT_EQ(counted["corrupt_dropped"], 0);
    EXPECT_EQ(counted["misses"], 1);
    // The stale file was cleared so the slot can be rewritten.
    EXPECT_FALSE(fs::exists(path));
    reader.put("key1", "payload one");
    EXPECT_TRUE(reader.get("key1").has_value());
}

TEST(ArtifactCache, WrongKeyInFileIsACollisionNotAHit)
{
    ScratchDir dir("collision");
    const CacheCounterDelta counted;
    runtime::ArtifactCache cache({.disk_dir = dir.str()});
    cache.put("key1", "payload");
    // Re-home key1's file under key2's name: a file-name collision.
    runtime::ArtifactCache other({.disk_dir = dir.str()});
    fs::rename(cache.diskPathFor("key1"), other.diskPathFor("key2"));
    EXPECT_FALSE(other.get("key2").has_value());
    EXPECT_EQ(counted["corrupt_dropped"], 1);
}

TEST(ArtifactCache, OrphanedTmpFilesOfDeadWritersAreCollected)
{
    // A writer killed between publishFile's write and its rename
    // leaves `<name>.tmp.<pid>.<tid>` behind.  The first disk access
    // removes the entry and probe ones whose pid is gone, and keeps
    // a live writer's file and the journal's own temporaries.
    ScratchDir dir("orphans");
    fs::create_directories(dir.str());
    const pid_t dead = ::fork();
    if (dead == 0)
        ::_exit(0);
    ASSERT_GT(dead, 0);
    ASSERT_EQ(::waitpid(dead, nullptr, 0), dead);
    const std::string dead_tmp = ".tmp." + std::to_string(dead) + ".7";
    const std::string orphan = dir.str() + "/00ff.apexcache" + dead_tmp;
    const std::string probe = dir.str() + "/.apexprobe" + dead_tmp;
    const std::string journal = dir.str() + "/sweep.journal" + dead_tmp;
    const std::string live = dir.str() + "/11ee.apexcache.tmp." +
                             std::to_string(::getpid()) + ".7";
    for (const std::string &path : {orphan, probe, journal, live})
        std::ofstream(path) << "half-written";

    runtime::ArtifactCache cache({.disk_dir = dir.str()});
    EXPECT_FALSE(cache.get("key1").has_value());
    EXPECT_FALSE(fs::exists(orphan));
    EXPECT_FALSE(fs::exists(probe));
    EXPECT_TRUE(fs::exists(journal));
    EXPECT_TRUE(fs::exists(live));
}

// --- publishFile + PeriodicMetricsWriter --------------------------------

/** Slurp a file's bytes, or "" when it does not exist. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** True when a sibling of @p path is named `<file>.tmp*` — a publish
 * left its temporary behind. */
bool
hasTmpSibling(const std::string &path)
{
    const fs::path p(path);
    const std::string prefix = p.filename().string() + ".tmp";
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(p.parent_path(), ec))
        if (entry.path().filename().string().rfind(prefix, 0) == 0)
            return true;
    return false;
}

TEST(PublishFile, ReplacesARegularFileWholesale)
{
    ScratchDir dir("publish_regular");
    fs::create_directories(dir.str());
    const std::string path = dir.str() + "/out.txt";
    ASSERT_TRUE(runtime::publishFile(path, "old bytes, longer", false)
                    .ok());
    ASSERT_TRUE(runtime::publishFile(path, "new", true).ok());
    EXPECT_EQ(slurp(path), "new");
    EXPECT_FALSE(hasTmpSibling(path));
}

TEST(PublishFile, FailureNamesThePathAndLeavesNothingBehind)
{
    ScratchDir dir("publish_missing");
    fs::create_directories(dir.str());
    // publishFile creates no directories.
    const std::string path = dir.str() + "/missing/out.txt";
    const Status s = runtime::publishFile(path, "bytes", false);
    EXPECT_EQ(s.code(), ErrorCode::kResourceExhausted);
    EXPECT_NE(s.message().find(path), std::string::npos) << s.message();
    EXPECT_NE(s.message().find("No such file or directory"),
              std::string::npos)
        << s.message();
    EXPECT_FALSE(fs::exists(dir.str() + "/missing"));
}

TEST(PublishFile, SymlinkKeepsItsLinkAndItsTargetGetsTheBytes)
{
    ScratchDir dir("publish_symlink");
    fs::create_directories(dir.str());
    const std::string real = dir.str() + "/real.json";
    const std::string link = dir.str() + "/link.json";
    ASSERT_TRUE(runtime::publishFile(real, "old", false).ok());
    fs::create_symlink("real.json", link);
    ASSERT_TRUE(runtime::publishFile(link, "new", false).ok());
    EXPECT_TRUE(fs::is_symlink(link));
    EXPECT_EQ(slurp(real), "new");
    EXPECT_FALSE(hasTmpSibling(real));
    EXPECT_FALSE(hasTmpSibling(link));

    // A dangling link is followed too: its target comes into being.
    fs::remove(real);
    ASSERT_TRUE(runtime::publishFile(link, "fresh", false).ok());
    EXPECT_TRUE(fs::is_symlink(link));
    EXPECT_EQ(slurp(real), "fresh");
}

TEST(PublishFile, FifoIsWrittenInPlaceAndStaysAFifo)
{
    ScratchDir dir("publish_fifo");
    fs::create_directories(dir.str());
    const std::string path = dir.str() + "/fifo";
    ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
    // A read-write end held by the test keeps every open() below from
    // blocking, so a publish that renamed over the FIFO fails the
    // test (the reader sees EOF) instead of hanging it.
    const int keep = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(keep, 0);
    std::promise<void> opened;
    std::string got;
    std::thread reader([&] {
        const int fd = ::open(path.c_str(), O_RDONLY);
        opened.set_value();
        char buf[256];
        for (ssize_t n; fd >= 0 && (n = ::read(fd, buf, sizeof buf)) > 0;)
            got.append(buf, static_cast<std::size_t>(n));
        if (fd >= 0)
            ::close(fd);
    });
    opened.get_future().wait();
    const Status s = runtime::publishFile(path, "through the pipe", false);
    ::close(keep);
    reader.join();
    EXPECT_TRUE(s.ok()) << s.toString();
    EXPECT_EQ(got, "through the pipe");
    EXPECT_TRUE(fs::is_fifo(path));
    EXPECT_FALSE(hasTmpSibling(path));
}

TEST(PeriodicMetricsWriter, FlushesAtomically)
{
    ScratchDir dir("periodic_metrics");
    fs::create_directories(dir.str());
    const std::string path = dir.str() + "/metrics.json";
    telemetry::Counter &c = telemetry::counter("test.periodic.flushes");
    {
        // A 5 ms timer races the explicit flushes below: each writer
        // publishes through its own tmp file.
        runtime::PeriodicMetricsWriter writer(path, 5.0);
        c.add(1);
        ASSERT_TRUE(writer.flushNow());
        EXPECT_GE(writer.flushCount(), 1);
    } // Joins the timer thread, so no publish is in flight below.
    EXPECT_NE(slurp(path).find("test.periodic.flushes"),
              std::string::npos);
    // The temp file never survives a completed flush.
    EXPECT_FALSE(hasTmpSibling(path));
}

TEST(PeriodicMetricsWriter, KeepsLastGoodFileAcrossFlushFailure)
{
    ScratchDir dir("metrics_flush_failure");
    fs::create_directories(dir.str());
    const std::string path = dir.str() + "/metrics.json";
    telemetry::Counter &failures =
        telemetry::counter("apex.resource.metrics_flush_failures");
    const long long failures_before = failures.value();

    runtime::PeriodicMetricsWriter writer(path, 1e9);
    ASSERT_TRUE(writer.flushNow());
    const long long flushes_before = writer.flushCount();
    const std::string good = slurp(path);
    ASSERT_FALSE(good.empty());

    {
        FaultScope fault(FaultStage::kDiskFull, 1);
        EXPECT_FALSE(writer.flushNow());
    }
    // The failure is counted, the flush count is honest, and — the
    // durability contract — the previous good file is untouched:
    // observers keep reading the last complete snapshot.
    EXPECT_EQ(failures.value(), failures_before + 1);
    EXPECT_EQ(writer.flushCount(), flushes_before);
    EXPECT_EQ(slurp(path), good);
    EXPECT_FALSE(hasTmpSibling(path));

    // When the disk recovers, the next flush succeeds on its own.
    EXPECT_TRUE(writer.flushNow());
    EXPECT_EQ(writer.flushCount(), flushes_before + 1);
}

TEST(PeriodicMetricsWriter, SurvivesUncreatableTmpFile)
{
    // The metrics "directory" is a regular file, so creating the tmp
    // file fails with ENOTDIR (works even when running as root,
    // unlike permission-based setups).
    ScratchDir dir("metrics_blocker");
    fs::create_directories(dir.str());
    const std::string blocker = dir.str() + "/blocker";
    {
        std::ofstream os(blocker, std::ios::trunc);
        os << "not a directory\n";
    }
    telemetry::Counter &failures =
        telemetry::counter("apex.resource.metrics_flush_failures");
    const long long failures_before = failures.value();
    {
        runtime::PeriodicMetricsWriter writer(blocker + "/metrics.json",
                                              1e9);
        EXPECT_FALSE(writer.flushNow());
    }
    EXPECT_GE(failures.value(), failures_before + 1);
}

TEST(PeriodicMetricsWriter, SurvivesRenameFailure)
{
    // The target path is an existing directory: the tmp file writes
    // fine but the publishing rename fails.
    ScratchDir dir("metrics_renameblock");
    const std::string path = dir.str() + "/metrics.json";
    fs::create_directories(path);
    telemetry::Counter &failures =
        telemetry::counter("apex.resource.metrics_flush_failures");
    const long long failures_before = failures.value();
    {
        runtime::PeriodicMetricsWriter writer(path, 1e9);
        EXPECT_FALSE(writer.flushNow());
        // No orphaned tmp file is left behind on the rename path.
        EXPECT_FALSE(hasTmpSibling(path));
    }
    EXPECT_GE(failures.value(), failures_before + 1);
}

// --- Parallel sweep: determinism + cancellation + caching --------------

std::vector<apps::AppInfo>
smallSuite()
{
    return {apps::gaussianBlur(2), apps::unsharp(1)};
}

/** Project a sweep outcome onto a comparable summary string. */
std::string
summarize(const core::SweepOutcome &out)
{
    std::string s;
    char buf[256];
    for (const auto &e : out.entries) {
        std::snprintf(buf, sizeof buf, "%s/%s area=%a energy=%a\n",
                      e.app.c_str(), e.variant.c_str(),
                      e.result.pe_area, e.result.pe_energy);
        s += buf;
    }
    for (const auto &f : out.report.failures)
        s += f.app + "/" + f.variant + " " + f.stage + "\n";
    return s;
}

TEST(ParallelSweep, JobCountDoesNotChangeResults)
{
    const auto suite = smallSuite();
    const model::TechModel tech = model::defaultTech();
    const core::Explorer explorer(tech);

    core::SweepOptions seq;
    seq.jobs = 1;
    const auto sequential = core::runSweep(suite, explorer, tech, seq);
    ASSERT_FALSE(sequential.entries.empty());

    core::SweepOptions par;
    par.jobs = 8;
    const auto parallel = core::runSweep(suite, explorer, tech, par);

    EXPECT_EQ(summarize(sequential), summarize(parallel));
    EXPECT_EQ(parallel.stats.jobs, 8);
    EXPECT_EQ(sequential.stats.tasks_run, parallel.stats.tasks_run);

    // `apexc sweep --jobs 4`: one pool shared by the sweep and the
    // miner, so mining's parallelFor nests inside build tasks.
    runtime::ThreadPool pool(4);
    core::ExplorerOptions shared_options;
    shared_options.miner.pool = &pool;
    const core::Explorer shared_explorer(tech, shared_options);
    core::SweepOptions shared;
    shared.pool = &pool;
    const auto nested =
        core::runSweep(suite, shared_explorer, tech, shared);

    EXPECT_EQ(summarize(sequential), summarize(nested));
    EXPECT_EQ(nested.stats.jobs, 4);
    EXPECT_EQ(sequential.stats.tasks_run, nested.stats.tasks_run);
}

TEST(ParallelSweep, CancellationSkipsCellsDeterministically)
{
    const auto suite = smallSuite();
    const model::TechModel tech = model::defaultTech();
    const core::Explorer explorer(tech);

    std::atomic<bool> cancel{true}; // cancelled before it starts
    core::SweepOptions options;
    options.cancel = &cancel;
    const auto out = core::runSweep(suite, explorer, tech, options);

    EXPECT_TRUE(out.entries.empty());
    ASSERT_EQ(out.report.failures.size(), suite.size());
    for (const auto &f : out.report.failures)
        EXPECT_EQ(f.status.code(), ErrorCode::kCancelled);
}

TEST(ParallelSweep, CancelMidSweepDrains)
{
    const auto suite = smallSuite();
    const model::TechModel tech = model::defaultTech();
    const core::Explorer explorer(tech);

    // Cancel as soon as the first cell completes: tasks already
    // running finish, every later one sees the flag and returns.
    std::atomic<bool> cancel{false};
    core::SweepOptions options;
    options.jobs = 4;
    options.cancel = &cancel;
    options.progress = [&cancel](const core::SweepProgress &) {
        cancel.store(true);
    };
    const auto out = core::runSweep(suite, explorer, tech, options);

    EXPECT_GE(out.report.evaluated, 1);
    EXPECT_FALSE(out.report.failures.empty());
    for (const auto &f : out.report.failures)
        EXPECT_EQ(f.status.code(), ErrorCode::kCancelled)
            << f.app << "/" << f.variant << ": " << f.status.toString();
}

TEST(ParallelSweep, TaskExceptionIsRethrownAfterDrain)
{
    const auto suite = smallSuite();
    const model::TechModel tech = model::defaultTech();
    const core::Explorer explorer(tech);

    // A progress sink that throws escapes every evaluation task.  The
    // count must still drain (no hang at jobs=4), every other cell
    // still runs, and runSweep rethrows afterwards.
    for (int jobs : {1, 4}) {
        std::atomic<int> calls{0};
        core::SweepOptions options;
        options.jobs = jobs;
        options.progress = [&calls](const core::SweepProgress &) {
            ++calls;
            throw std::runtime_error("progress sink failed");
        };
        EXPECT_THROW(core::runSweep(suite, explorer, tech, options),
                     std::runtime_error)
            << "jobs=" << jobs;
        EXPECT_EQ(calls.load(), 3 * static_cast<int>(suite.size()))
            << "jobs=" << jobs;
    }
}

TEST(ParallelSweep, WarmCacheHitsEveryEvaluation)
{
    const auto suite = smallSuite();
    const model::TechModel tech = model::defaultTech();
    const core::Explorer explorer(tech);
    runtime::ArtifactCache cache;

    core::SweepOptions options;
    options.cache = &cache;
    const auto cold = core::runSweep(suite, explorer, tech, options);
    EXPECT_EQ(cold.stats.cache_hits, 0);
    EXPECT_GT(cold.stats.cache_misses, 0);

    const auto warm = core::runSweep(suite, explorer, tech, options);
    EXPECT_EQ(warm.stats.cache_misses, 0);
    EXPECT_EQ(warm.stats.cache_hits, cold.stats.cache_misses);
    EXPECT_EQ(summarize(cold), summarize(warm));
}

TEST(ParallelSweep, CachedResultsAreBitIdentical)
{
    const auto suite = smallSuite();
    const model::TechModel tech = model::defaultTech();
    const core::Explorer explorer(tech);
    runtime::ArtifactCache cache;

    core::SweepOptions plain;
    const auto uncached = core::runSweep(suite, explorer, tech, plain);

    core::SweepOptions cached;
    cached.cache = &cache;
    (void)core::runSweep(suite, explorer, tech, cached); // fill
    const auto warm = core::runSweep(suite, explorer, tech, cached);

    ASSERT_EQ(uncached.entries.size(), warm.entries.size());
    for (std::size_t i = 0; i < uncached.entries.size(); ++i) {
        const auto &a = uncached.entries[i].result;
        const auto &b = warm.entries[i].result;
        // Hex-float serialization must round-trip doubles exactly.
        EXPECT_EQ(a.pe_area, b.pe_area);
        EXPECT_EQ(a.pe_energy, b.pe_energy);
        EXPECT_EQ(a.runtime_ms, b.runtime_ms);
        EXPECT_EQ(a.perf_per_mm2, b.perf_per_mm2);
        EXPECT_EQ(a.pe_count, b.pe_count);
    }
}

TEST(ParallelSweep, TraceSpansPerLaneDoNotOverlap)
{
    telemetry::resetTracingForTesting();
    telemetry::setTracingEnabled(true);

    const auto suite = smallSuite();
    const model::TechModel tech = model::defaultTech();
    const core::Explorer explorer(tech);
    core::SweepOptions options;
    options.jobs = 4;
    const auto out = core::runSweep(suite, explorer, tech, options);
    ASSERT_FALSE(out.entries.empty());

    telemetry::setTracingEnabled(false);
    telemetry::collect();

    // Every span tagged with a worker lane ran on that lane's thread,
    // so the top-level (depth 0) intervals of one lane must tile the
    // timeline without overlapping each other.
    std::map<int, std::vector<const telemetry::SpanEvent *>> by_lane;
    for (const telemetry::SpanEvent &ev : telemetry::events())
        if (ev.lane >= 0 && ev.depth == 0)
            by_lane[ev.lane].push_back(&ev);
    EXPECT_FALSE(by_lane.empty());
    for (auto &[lane, spans] : by_lane) {
        std::sort(spans.begin(), spans.end(),
                  [](const telemetry::SpanEvent *a,
                     const telemetry::SpanEvent *b) {
                      return a->ts_us < b->ts_us;
                  });
        for (std::size_t i = 1; i < spans.size(); ++i) {
            EXPECT_GE(spans[i]->ts_us,
                      spans[i - 1]->ts_us + spans[i - 1]->dur_us)
                << "overlapping spans on lane " << lane << ": "
                << spans[i - 1]->name << " and " << spans[i]->name;
        }
    }
    telemetry::resetTracingForTesting();
}

TEST(ParallelSweep, SpanSetIsJobCountInvariantAndTraceScoped)
{
    // The schedule may interleave differently under more jobs, but
    // the *set* of spans a request produces — names, cell scopes,
    // args — is a pure function of the request.  Timestamps, lanes
    // and nesting depth are schedule, so they are excluded.
    const auto suite = smallSuite();
    const model::TechModel tech = model::defaultTech();
    const core::Explorer explorer(tech);

    const auto spanSetFor = [&](int jobs, std::uint64_t trace_id) {
        telemetry::resetTracingForTesting();
        telemetry::setTracingEnabled(true);
        core::SweepOptions options;
        options.jobs = jobs;
        options.trace_id = trace_id;
        const auto out = core::runSweep(suite, explorer, tech, options);
        EXPECT_FALSE(out.entries.empty());
        telemetry::setTracingEnabled(false);
        std::vector<std::string> set;
        for (const telemetry::SpanEvent &ev :
             telemetry::eventsForTrace(trace_id))
            set.push_back(ev.name + "|" + ev.scope + "|" + ev.args);
        telemetry::resetTracingForTesting();
        std::sort(set.begin(), set.end());
        return set;
    };

    const auto sequential = spanSetFor(1, 0x51);
    const auto parallel = spanSetFor(4, 0x52);
    EXPECT_FALSE(sequential.empty());
    EXPECT_EQ(sequential, parallel);
}

TEST(ParallelSweep, SweepSpansCarryTheRequestTraceId)
{
    telemetry::resetTracingForTesting();
    telemetry::setTracingEnabled(true);

    const auto suite = smallSuite();
    const model::TechModel tech = model::defaultTech();
    const core::Explorer explorer(tech);
    core::SweepOptions options;
    options.jobs = 4; // Pool lanes must inherit the id too.
    options.trace_id = 0xabc;
    const auto out = core::runSweep(suite, explorer, tech, options);
    ASSERT_FALSE(out.entries.empty());

    telemetry::setTracingEnabled(false);
    telemetry::collect();
    std::size_t scoped = 0;
    bool saw_lane_span = false;
    for (const telemetry::SpanEvent &ev : telemetry::events()) {
        EXPECT_EQ(ev.trace_id, 0xabcu) << ev.name;
        ++scoped;
        saw_lane_span |= ev.lane >= 0;
    }
    EXPECT_GT(scoped, 0u);
    EXPECT_TRUE(saw_lane_span);
    // The request context did not leak past runSweep's unwind.
    EXPECT_EQ(telemetry::currentTraceId(), 0u);
    telemetry::resetTracingForTesting();
}

} // namespace

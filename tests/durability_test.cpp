/**
 * Durability and pressure tests: the crash-safe sweep journal
 * (kill -9 mid-sweep, resume, byte-identical report), the framed
 * record log it is built on and the frame decoder that reads it back
 * (including seeded mutation of journal and cache bytes), the
 * Deadline watchdog threaded through the exponential stages, and
 * graceful degradation when a cell's budget runs out.
 */
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "core/deadline.hpp"
#include "core/evaluate.hpp"
#include "core/fault.hpp"
#include "core/journal.hpp"
#include "core/sweep.hpp"
#include "merging/clique.hpp"
#include "runtime/cache.hpp"
#include "runtime/record.hpp"
#include "runtime/telemetry.hpp"
#include "frame_forge.hpp"

namespace apex::core {
namespace {

namespace fs = std::filesystem;

const model::TechModel tech = model::defaultTech();

/** Unique scratch dir per test and process (two runs of the suite
 * on one host must not share one), removed on scope exit. */
class ScratchDir {
  public:
    explicit ScratchDir(const std::string &tag)
        : path_(fs::temp_directory_path() /
                ("apex_durability_test_" + tag + "_" +
                 std::to_string(::getpid())))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() { fs::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

std::string
readBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

std::vector<apps::AppInfo>
smallApps()
{
    return {apps::gaussianBlur(1), apps::unsharp(1)};
}

/**
 * Full byte-level projection of a sweep outcome: the summary, every
 * entry (with its exactly-serialized result) and the complete
 * diagnostics trail.  Two outcomes with equal bytes produced the
 * same report.
 */
std::string
outcomeBytes(const SweepOutcome &outcome)
{
    std::ostringstream os;
    os << outcome.report.summary() << '\n';
    os << "degraded " << outcome.report.degraded << '\n';
    for (const SweepEntry &e : outcome.entries)
        os << e.app << '/' << e.variant << '\n'
           << serializeEvalResult(e.result);
    os << outcome.report.diagnostics.toString();
    return os.str();
}

// --- Frame decoder over file bytes -------------------------------------
//
// The journal and the cache read their files through the same
// FrameDecoder as the pipes and sockets (WireDecoder.* in
// worker_pool_test covers the stream side).  These cases pin what the
// file readers rely on: a clean end, a named schema skew, and damage
// that never reads as a frame.

TEST(FrameDecoder, RoundTripsBinaryPayloadToACleanEnd)
{
    const std::string payload("bytes\nwith\nnewlines\0and nul", 27);
    const std::string frame =
        runtime::encodeFrame("apextest", 3, "blob", payload);
    runtime::FrameDecoder decoder("apextest", 3);
    decoder.feed(frame.data(), frame.size());
    runtime::FramedRecord rec;
    ASSERT_EQ(decoder.next(&rec), runtime::DecodeResult::kFrame);
    EXPECT_EQ(rec.type, "blob");
    EXPECT_EQ(rec.payload, payload);
    // Nothing buffered and nothing poisoned: a clean end of file.
    EXPECT_EQ(decoder.next(&rec), runtime::DecodeResult::kNeedMore);
    EXPECT_EQ(decoder.buffered(), 0u);
    EXPECT_FALSE(decoder.corrupt());
}

TEST(FrameDecoder, VersionSkewIsDetectedBeforePayload)
{
    const std::string frame =
        runtime::encodeFrame("apextest", 1, "blob", "old payload");
    // The header line alone is enough to name the skew.
    const std::string header = frame.substr(0, frame.find('\n') + 1);
    runtime::FrameDecoder decoder("apextest", 2);
    decoder.feed(header.data(), header.size());
    runtime::FramedRecord rec;
    EXPECT_EQ(decoder.next(&rec), runtime::DecodeResult::kCorrupt);
    EXPECT_TRUE(decoder.versionMismatch());
    EXPECT_NE(decoder.corruptReason().find("version mismatch"),
              std::string::npos)
        << decoder.corruptReason();
}

TEST(FrameDecoder, TruncationAndBitRotAreNotFrames)
{
    const std::string frame =
        runtime::encodeFrame("apextest", 3, "blob", "payload bytes");
    {
        // A torn tail write: half the frame stays buffered, which a
        // file reader at EOF treats as a damaged tail.
        runtime::FrameDecoder decoder("apextest", 3);
        decoder.feed(frame.data(), frame.size() / 2);
        runtime::FramedRecord rec;
        EXPECT_EQ(decoder.next(&rec),
                  runtime::DecodeResult::kNeedMore);
        EXPECT_GT(decoder.buffered(), 0u);
    }
    {
        // One flipped payload byte: the checksum catches it, and it
        // is damage, not a schema skew.
        std::string rotted = frame;
        rotted[rotted.size() - 3] ^= 0x20;
        runtime::FrameDecoder decoder("apextest", 3);
        decoder.feed(rotted.data(), rotted.size());
        runtime::FramedRecord rec;
        EXPECT_EQ(decoder.next(&rec), runtime::DecodeResult::kCorrupt);
        EXPECT_FALSE(decoder.versionMismatch());
    }
}

// --- RecordLog ---------------------------------------------------------

TEST(RecordLog, AppendsSurviveReopen)
{
    ScratchDir dir("recordlog");
    const std::string path = dir.str() + "/log";
    {
        runtime::RecordLog log;
        ASSERT_TRUE(log.open(path, "apextest", 1, true).ok());
        EXPECT_EQ(log.recovery(), runtime::LogRecovery::kFresh);
        ASSERT_TRUE(log.append("a", "first").ok());
        ASSERT_TRUE(log.append("b", "second").ok());
    }
    runtime::RecordLog log;
    ASSERT_TRUE(log.open(path, "apextest", 1, true).ok());
    EXPECT_EQ(log.recovery(), runtime::LogRecovery::kClean);
    ASSERT_EQ(log.records().size(), 2u);
    EXPECT_EQ(log.records()[0].type, "a");
    EXPECT_EQ(log.records()[0].payload, "first");
    EXPECT_EQ(log.records()[1].payload, "second");
}

TEST(RecordLog, CorruptTailIsDroppedAndCompacted)
{
    ScratchDir dir("tailcrash");
    const std::string path = dir.str() + "/log";
    {
        runtime::RecordLog log;
        ASSERT_TRUE(log.open(path, "apextest", 1, true).ok());
        ASSERT_TRUE(log.append("a", "kept one").ok());
        ASSERT_TRUE(log.append("a", "kept two").ok());
    }
    {
        // A crash mid-append leaves a torn frame at the tail.
        std::ofstream os(path, std::ios::binary | std::ios::app);
        os << "apextest 1 a sum 0123";
    }
    {
        runtime::RecordLog log;
        ASSERT_TRUE(log.open(path, "apextest", 1, true).ok());
        EXPECT_EQ(log.recovery(),
                  runtime::LogRecovery::kTailDropped);
        ASSERT_EQ(log.records().size(), 2u);
        ASSERT_TRUE(log.append("a", "after recovery").ok());
    }
    // The compaction rewrote a clean file: the next open is clean.
    runtime::RecordLog log;
    ASSERT_TRUE(log.open(path, "apextest", 1, true).ok());
    EXPECT_EQ(log.recovery(), runtime::LogRecovery::kClean);
    ASSERT_EQ(log.records().size(), 3u);
    EXPECT_EQ(log.records()[2].payload, "after recovery");
}

TEST(RecordLog, MidFileCorruptionKeepsPrefixAndCountsTheDrop)
{
    ScratchDir dir("midfile");
    const std::string path = dir.str() + "/log";
    {
        runtime::RecordLog log;
        ASSERT_TRUE(log.open(path, "apextest", 1, true).ok());
        ASSERT_TRUE(log.append("a", "record one").ok());
        ASSERT_TRUE(log.append("a", "record two").ok());
        ASSERT_TRUE(log.append("a", "record three").ok());
    }
    // Flip one payload byte of the *middle* record — not the tail.
    // Replay must stop at the corruption point: everything after a
    // damaged frame is unframed bytes, so only the prefix is
    // trustworthy.
    {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        std::string all((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
        const std::size_t at = all.find("record two");
        ASSERT_NE(at, std::string::npos);
        f.seekp(static_cast<std::streamoff>(at + 3));
        f.put('X');
    }
    const long long drops_before =
        telemetry::counter("apex.record.tail_drops").value();
    runtime::RecordLog log;
    ASSERT_TRUE(log.open(path, "apextest", 1, true).ok());
    EXPECT_EQ(log.recovery(), runtime::LogRecovery::kTailDropped);
    ASSERT_EQ(log.records().size(), 1u);
    EXPECT_EQ(log.records()[0].payload, "record one");
    // The drop is observable in metrics, not just in the recovery
    // enum the caller may never look at.
    EXPECT_EQ(
        telemetry::counter("apex.record.tail_drops").value(),
        drops_before + 1);
}

TEST(RecordLog, ForgedLengthDropsTheTailInsteadOfAllocating)
{
    // A length field no reader may honor — a corrupt disk or a
    // hostile writer.  Replay must treat it as a damaged tail like
    // any other, keep the prefix, and compact, not size a buffer by
    // it.
    ScratchDir dir("forgedlen");
    const std::string path = dir.str() + "/log";
    {
        runtime::RecordLog log;
        ASSERT_TRUE(log.open(path, "apextest", 1, true).ok());
        ASSERT_TRUE(log.append("a", "first").ok());
        ASSERT_TRUE(log.append("b", "second").ok());
    }
    test::forgeFrameLength(path, 1);
    {
        runtime::RecordLog log;
        ASSERT_TRUE(log.open(path, "apextest", 1, true).ok());
        EXPECT_EQ(log.recovery(), runtime::LogRecovery::kTailDropped);
        ASSERT_EQ(log.records().size(), 1u);
        EXPECT_EQ(log.records()[0].payload, "first");
    }
    EXPECT_EQ(readBytes(path),
              runtime::encodeFrame("apextest", 1, "a", "first"));
}

TEST(RecordLog, HalfCompactedCrashStateRecovers)
{
    // Simulate a crash *between* a compaction's tmp write and its
    // rename: the real log still has its corrupt tail, and an orphan
    // tmp file sits next to it.  The next open must recover the
    // valid prefix and clean up the orphan — and never mistake the
    // orphan for the log.
    ScratchDir dir("halfcompact");
    const std::string path = dir.str() + "/log";
    {
        runtime::RecordLog log;
        ASSERT_TRUE(log.open(path, "apextest", 1, true).ok());
        ASSERT_TRUE(log.append("a", "durable").ok());
    }
    {
        std::ofstream os(path, std::ios::binary | std::ios::app);
        os << "apextest 1 a sum feed"; // torn tail
    }
    const std::string stale = path + ".tmp.12345";
    {
        std::ofstream os(stale, std::ios::binary);
        os << runtime::encodeFrame("apextest", 1, "a", "durable");
    }
    {
        runtime::RecordLog log;
        ASSERT_TRUE(log.open(path, "apextest", 1, true).ok());
        EXPECT_EQ(log.recovery(),
                  runtime::LogRecovery::kTailDropped);
        ASSERT_EQ(log.records().size(), 1u);
        EXPECT_EQ(log.records()[0].payload, "durable");
        EXPECT_FALSE(fs::exists(stale));
        ASSERT_TRUE(log.append("a", "after recovery").ok());
    }
    runtime::RecordLog log;
    ASSERT_TRUE(log.open(path, "apextest", 1, true).ok());
    EXPECT_EQ(log.recovery(), runtime::LogRecovery::kClean);
    EXPECT_EQ(log.records().size(), 2u);
}

TEST(RecordLog, SchemaMismatchRestartsFresh)
{
    ScratchDir dir("schema");
    const std::string path = dir.str() + "/log";
    {
        runtime::RecordLog log;
        ASSERT_TRUE(log.open(path, "apextest", 1, true).ok());
        ASSERT_TRUE(log.append("a", "v1 record").ok());
    }
    runtime::RecordLog log;
    ASSERT_TRUE(log.open(path, "apextest", 2, true).ok());
    EXPECT_EQ(log.recovery(),
              runtime::LogRecovery::kVersionMismatch);
    EXPECT_TRUE(log.records().empty());
}

// --- Seeded mutation of frame bytes ------------------------------------
//
// Every reader of frame bytes must survive arbitrary damage: no
// throw, no allocation sized by a forged field, and never a payload
// that was not written.  Seeded, so a failure names its seed and
// replays exactly.

TEST(FrameMutation, DamageYieldsAPrefixOrAMissNeverOtherBytes)
{
    ScratchDir dir("mutation");
    const std::vector<std::string> payloads = {
        "first", "", std::string("bin\0\nary", 8),
        std::string(300, 'x'), "len 5 sum 00\n", "last"};
    const std::string journal = dir.str() + "/log";
    {
        runtime::RecordLog log;
        ASSERT_TRUE(log.open(journal, "apextest", 1, false).ok());
        for (const std::string &p : payloads)
            ASSERT_TRUE(log.append("rec", p).ok());
    }
    const std::string journal_bytes = readBytes(journal);

    const runtime::CacheOptions cache_options = {
        .max_memory_entries = 0, .disk_dir = dir.str() + "/cache"};
    const std::string key = "app/variant key";
    const std::string value = "serialized\nresult bytes";
    std::string entry_path;
    {
        runtime::ArtifactCache cache(cache_options);
        cache.put(key, value);
        entry_path = cache.diskPathFor(key);
    }
    const std::string entry_bytes = readBytes(entry_path);

    const auto is_prefix =
        [&payloads](const std::vector<runtime::FramedRecord> &got) {
            if (got.size() > payloads.size())
                return false;
            for (std::size_t i = 0; i < got.size(); ++i)
                if (got[i].payload != payloads[i])
                    return false;
            return true;
        };

    for (unsigned seed = 1; seed <= 500; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937 rng(seed);
        std::string bytes = journal_bytes;
        std::string entry = entry_bytes;
        for (int n = 1 + static_cast<int>(rng() % 3); n > 0; --n) {
            test::mutate(bytes, test::frameNumbers(bytes, "apextest"),
                         rng);
            test::mutate(entry, test::frameNumbers(entry, "apexcache"),
                         rng);
        }

        // The journal's replay: the payload type is outside the
        // checksum, so only payloads are compared.
        writeBytes(journal, bytes);
        runtime::RecordLog log;
        Status opened;
        EXPECT_NO_THROW(opened = log.open(journal, "apextest", 1, true));
        EXPECT_TRUE(opened.ok()) << opened.toString();
        EXPECT_TRUE(is_prefix(log.records()));

        // The stream decoder, fed the same bytes in random chunks.
        runtime::FrameDecoder decoder("apextest", 1);
        std::vector<runtime::FramedRecord> got;
        for (std::size_t at = 0; at < bytes.size() && !decoder.corrupt();) {
            const std::size_t n =
                std::min<std::size_t>(bytes.size() - at, 1 + rng() % 64);
            decoder.feed(bytes.data() + at, n);
            at += n;
            runtime::FramedRecord rec;
            while (decoder.next(&rec) == runtime::DecodeResult::kFrame)
                got.push_back(std::move(rec));
        }
        EXPECT_TRUE(is_prefix(got));

        // The cache's disk tier: the exact value or a miss.
        writeBytes(entry_path, entry);
        runtime::ArtifactCache cache(cache_options);
        std::optional<std::string> hit;
        EXPECT_NO_THROW(hit = cache.get(key));
        if (hit.has_value()) {
            EXPECT_EQ(*hit, value);
        }
    }
}

// --- SweepJournal ------------------------------------------------------

TEST(SweepJournal, ReplaysAppAndCellRecords)
{
    ScratchDir dir("journal");
    SweepJournal::AppRecord app;
    app.app = 0;
    app.spec_failed = true;
    app.spec_name = "pe4_x";
    app.spec_status =
        Status(ErrorCode::kMiningFailed, "injected")
            .withContext("mining subgraphs");
    app.cells[0] = {true, "pe_base", 0, 0};
    app.cells[1] = {true, "pe1_x", 2, 1};

    SweepJournal::CellRecord ok_cell;
    ok_cell.app = 0;
    ok_cell.cell = 0;
    ok_cell.variant = "pe_base";
    ok_cell.result.success = true;
    ok_cell.result.pe_count = 7;
    ok_cell.result.pe_area = 0.1 + 0.2; // exact double round-trip
    ok_cell.result.diagnostics.info("place", "attempt trail", 2);

    SweepJournal::CellRecord bad_cell;
    bad_cell.app = 0;
    bad_cell.cell = 1;
    bad_cell.variant = "pe1_x";
    bad_cell.result.success = false;
    bad_cell.result.pnr_attempts = 4;
    bad_cell.result.status =
        Status(ErrorCode::kRouteFailed, "congestion on track 3")
            .withContext("routing 'x'")
            .withContext("evaluating 'x' on 'pe1_x'");
    bad_cell.result.diagnostics.error("route",
                                      bad_cell.result.status, 4);

    {
        SweepJournal journal;
        ASSERT_TRUE(journal.open(dir.str(), 42, 2, false).ok());
        ASSERT_TRUE(journal.active());
        journal.appendApp(app);
        journal.appendCell(ok_cell);
        journal.appendCell(bad_cell);
    }

    SweepJournal journal;
    ASSERT_TRUE(journal.open(dir.str(), 42, 2, true).ok());
    EXPECT_EQ(journal.replayedCells(), 2);
    ASSERT_NE(journal.appRecord(0), nullptr);
    EXPECT_EQ(journal.appRecord(1), nullptr);
    const SweepJournal::AppRecord &a = *journal.appRecord(0);
    EXPECT_TRUE(a.spec_failed);
    EXPECT_EQ(a.spec_name, "pe4_x");
    EXPECT_EQ(a.spec_status.toString(), app.spec_status.toString());
    EXPECT_TRUE(a.cells[0].has_variant);
    EXPECT_EQ(a.cells[1].variant, "pe1_x");
    EXPECT_EQ(a.cells[1].non_optimal_merges, 2);
    EXPECT_EQ(a.cells[1].merge_timeouts, 1);
    EXPECT_FALSE(a.cells[2].has_variant);

    const SweepJournal::CellRecord *c0 = journal.cellRecord(0, 0);
    ASSERT_NE(c0, nullptr);
    EXPECT_TRUE(c0->result.success);
    EXPECT_EQ(c0->result.pe_count, 7);
    EXPECT_EQ(c0->result.pe_area, ok_cell.result.pe_area);
    EXPECT_EQ(c0->result.diagnostics.toString(),
              ok_cell.result.diagnostics.toString());

    const SweepJournal::CellRecord *c1 = journal.cellRecord(0, 1);
    ASSERT_NE(c1, nullptr);
    EXPECT_FALSE(c1->result.success);
    EXPECT_EQ(c1->result.pnr_attempts, 4);
    EXPECT_EQ(c1->result.status.toString(),
              bad_cell.result.status.toString());
    EXPECT_EQ(journal.cellRecord(0, 2), nullptr);
    EXPECT_EQ(journal.cellRecord(1, 0), nullptr);
}

TEST(SweepJournal, FingerprintMismatchStartsFresh)
{
    ScratchDir dir("fpmismatch");
    {
        SweepJournal journal;
        ASSERT_TRUE(journal.open(dir.str(), 1, 1, false).ok());
        SweepJournal::AppRecord app;
        app.app = 0;
        journal.appendApp(app);
    }
    // Same dir, different sweep configuration: nothing replays, and
    // the stale journal has been restarted.
    SweepJournal journal;
    ASSERT_TRUE(journal.open(dir.str(), 2, 1, true).ok());
    EXPECT_EQ(journal.appRecord(0), nullptr);
    EXPECT_EQ(journal.replayedCells(), 0);
}

// --- Deadline ----------------------------------------------------------

TEST(Deadline, BasicsAndComposition)
{
    const Deadline inf = Deadline::infinite();
    EXPECT_TRUE(inf.isInfinite());
    EXPECT_FALSE(inf.expired());
    EXPECT_TRUE(inf.check("anything").ok());

    const Deadline past = Deadline::after(-1.0);
    EXPECT_TRUE(past.expired());
    const Status s = past.check("the clique search");
    EXPECT_EQ(s.code(), ErrorCode::kTimeout);
    // The message must replay byte-identically from a journal, so it
    // carries no clock readings.
    EXPECT_EQ(s.message(),
              "deadline expired before the clique search");

    const Deadline future = Deadline::after(1e9);
    EXPECT_FALSE(future.expired());
    EXPECT_GT(future.remainingMs(), 0.0);
    EXPECT_TRUE(
        Deadline::earliest(inf, future).expired() == false);
    EXPECT_TRUE(Deadline::earliest(past, future).expired());
    EXPECT_TRUE(Deadline::earliest(inf, inf).isInfinite());
}

TEST(Deadline, ClockSkewFaultForcesExpiryDeterministically)
{
    const Deadline d = Deadline::after(1e9);
    FaultScope scope(FaultStage::kClockSkew, 2);
    EXPECT_FALSE(d.expired()); // poll 1: clock is honest
    EXPECT_TRUE(d.expired());  // poll 2: armed skew fires
    EXPECT_FALSE(d.expired()); // poll 3: honest again
    // Infinite deadlines never consult the clock at all.
    FaultScope again(FaultStage::kClockSkew, 1);
    EXPECT_FALSE(Deadline::infinite().expired());
}

TEST(Deadline, CliqueSearchDegradesToGreedyOnExpiry)
{
    merging::CliqueProblem pb;
    pb.n = 3;
    pb.weight = {3.0, 2.0, 1.0};
    pb.adj = {{false, true, true},
              {true, false, true},
              {true, true, false}};
    const merging::CliqueResult r =
        merging::maxWeightClique(pb, 1000, Deadline::after(-1.0));
    EXPECT_TRUE(r.timed_out);
    EXPECT_FALSE(r.optimal);
    // Degraded, not empty: the greedy seed is still a valid clique.
    EXPECT_EQ(r.vertices.size(), 3u);

    const merging::CliqueResult full = merging::maxWeightClique(pb);
    EXPECT_TRUE(full.optimal);
    EXPECT_FALSE(full.timed_out);
    EXPECT_EQ(full.weight, 6.0);
}

TEST(Deadline, MinerStopsAtLevelBoundary)
{
    ExplorerOptions options;
    options.miner.deadline = Deadline::after(-1.0);
    const Explorer ex(tech, options);
    const auto mined = ex.analyze(apps::gaussianBlur(1).graph);
    ASSERT_FALSE(mined.ok());
    EXPECT_EQ(mined.status().code(), ErrorCode::kTimeout);
}

TEST(Deadline, EvaluateReturnsTimeoutStatus)
{
    const auto app = apps::gaussianBlur(1);
    const Explorer ex(tech);
    EvalOptions options;
    options.deadline = Deadline::after(-1.0);
    const EvalResult r =
        evaluate(app, ex.baselineVariant(),
                 EvalLevel::kPostMapping, tech, options);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.status.code(), ErrorCode::kTimeout);
    EXPECT_FALSE(r.diagnostics.forStage("deadline").empty());
}

// --- Sweep durability --------------------------------------------------

/**
 * Run a journaled sweep in a forked child that the crash point kills
 * at the @p nth journal append, as kill -9 would: no cleanup, no
 * stream flushes.  With @p mine_fault the child's first mining call
 * (the first app's PE k+1) fails as well.
 */
void
crashAtAppend(int nth, const std::vector<apps::AppInfo> &apps_list,
              const Explorer &ex, const SweepOptions &options,
              bool mine_fault = false)
{
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        FaultInjector::instance().reset();
        FaultInjector::instance().arm(FaultStage::kCrash, nth);
        if (mine_fault)
            FaultInjector::instance().arm(FaultStage::kMine, 1);
        (void)runSweep(apps_list, ex, tech, options);
        _Exit(42); // not reached: the crash point fires first
    }
    int wait_status = 0;
    ASSERT_EQ(waitpid(pid, &wait_status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wait_status));
    ASSERT_EQ(WTERMSIG(wait_status), SIGKILL);
}

TEST(Durability, ResumeAfterCleanRunReplaysEverything)
{
    ScratchDir dir("cleanresume");
    const auto apps_list = smallApps();
    const Explorer ex(tech);
    SweepOptions options;
    options.journal_dir = dir.str();

    const SweepOutcome first =
        runSweep(apps_list, ex, tech, options);
    ASSERT_EQ(first.report.evaluated, 6);
    EXPECT_EQ(first.stats.cells_replayed, 0);

    options.resume = true;
    const SweepOutcome second =
        runSweep(apps_list, ex, tech, options);
    EXPECT_EQ(second.stats.cells_replayed, 6);
    EXPECT_EQ(second.stats.tasks_run, 0);
    EXPECT_EQ(outcomeBytes(first), outcomeBytes(second));
}

TEST(Durability, SweepSurvivesSigkillAndResumesByteIdentical)
{
    ScratchDir dir("sigkill");
    const auto apps_list = smallApps();
    const Explorer ex(tech);

    SweepOptions options;
    options.journal_dir = dir.str();

    // The uninterrupted reference run (no journal involved).
    SweepOptions ref_options;
    const SweepOutcome reference =
        runSweep(apps_list, ex, tech, ref_options);
    ASSERT_EQ(reference.report.evaluated, 6);

    // Child: journaled sweep, hard-killed at the 4th journal append.
    ASSERT_NO_FATAL_FAILURE(crashAtAppend(4, apps_list, ex, options));

    // Resume: the journaled prefix replays, the rest re-runs, and
    // the assembled report is byte-identical to the uninterrupted
    // reference.
    options.resume = true;
    const SweepOutcome resumed =
        runSweep(apps_list, ex, tech, options);
    EXPECT_GT(resumed.stats.cells_replayed, 0);
    EXPECT_LT(resumed.stats.cells_replayed, 6);
    EXPECT_EQ(resumed.report.evaluated, 6);
    EXPECT_EQ(outcomeBytes(reference), outcomeBytes(resumed));

    // And a second resume replays everything without recomputing.
    const SweepOutcome third =
        runSweep(apps_list, ex, tech, options);
    EXPECT_EQ(third.stats.cells_replayed, 6);
    EXPECT_EQ(third.stats.tasks_run, 0);
    EXPECT_EQ(outcomeBytes(reference), outcomeBytes(third));
}

// An app's outcome is its latest build.  Crashed at the second append,
// the run journaled a complete build of the first app and its pe_base
// cell; the resume must rebuild it (two cells are missing), and that
// rebuild fails to mine PE k+1.  The report is the rebuild's: one
// mining failure for that variant, not also a "cancelled" line for
// the cell the journaled build listed.
TEST(Durability, ResumeWhoseRebuildFailsReportsEachCellOnce)
{
    ScratchDir dir("rebuildfails");
    const auto apps_list = smallApps();
    const Explorer ex(tech);
    SweepOptions options;
    options.journal_dir = dir.str();
    ASSERT_NO_FATAL_FAILURE(crashAtAppend(2, apps_list, ex, options));

    std::string reference;
    {
        FaultScope fault(FaultStage::kMine, 1);
        const SweepOutcome uninterrupted =
            runSweep(apps_list, ex, tech, SweepOptions{});
        ASSERT_EQ(uninterrupted.report.failures.size(), 1u);
        reference = outcomeBytes(uninterrupted);
    }
    FaultScope fault(FaultStage::kMine, 1);
    options.resume = true;
    const SweepOutcome resumed = runSweep(apps_list, ex, tech, options);
    EXPECT_EQ(resumed.stats.cells_replayed, 1);
    EXPECT_EQ(reference, outcomeBytes(resumed));
}

// The mirror case: the crashed run journaled a build whose PE k+1
// failed to mine, and the fault-free rebuild succeeds.  The report
// drops the journaled failure and evaluates the new cell; the new
// record is journaled, so the next resume replays exactly that.
TEST(Durability, ResumeWhoseRebuildSucceedsDropsTheJournaledFailure)
{
    ScratchDir dir("rebuildsucceeds");
    const auto apps_list = smallApps();
    const Explorer ex(tech);
    SweepOptions options;
    options.journal_dir = dir.str();
    ASSERT_NO_FATAL_FAILURE(
        crashAtAppend(2, apps_list, ex, options, /*mine_fault=*/true));

    const SweepOutcome reference =
        runSweep(apps_list, ex, tech, SweepOptions{});
    ASSERT_TRUE(reference.report.failures.empty());

    options.resume = true;
    const SweepOutcome resumed = runSweep(apps_list, ex, tech, options);
    EXPECT_EQ(resumed.stats.cells_replayed, 1);
    EXPECT_EQ(outcomeBytes(reference), outcomeBytes(resumed));

    const SweepOutcome again = runSweep(apps_list, ex, tech, options);
    EXPECT_EQ(again.stats.cells_replayed, 6);
    EXPECT_EQ(again.stats.tasks_run, 0);
    EXPECT_EQ(outcomeBytes(reference), outcomeBytes(again));
}

// --- Process isolation -------------------------------------------------

TEST(Isolation, ProcessModeIsByteIdenticalWithoutFaults)
{
    const auto apps_list = smallApps();
    const Explorer ex(tech);

    SweepOptions inproc;
    const SweepOutcome reference =
        runSweep(apps_list, ex, tech, inproc);
    ASSERT_EQ(reference.report.evaluated, 6);

    for (int jobs : {1, 2}) {
        SweepOptions options;
        options.isolate = IsolateMode::kProcess;
        options.jobs = jobs;
        const SweepOutcome isolated =
            runSweep(apps_list, ex, tech, options);
        EXPECT_EQ(isolated.report.evaluated, 6) << "jobs " << jobs;
        EXPECT_EQ(outcomeBytes(reference), outcomeBytes(isolated))
            << "jobs " << jobs;
        EXPECT_EQ(isolated.stats.worker_restarts, 0);
        EXPECT_EQ(isolated.stats.worker_quarantined, 0);
    }
}

// In process mode the supervisor owns the artifact cache: it serves
// cached cells itself and stores what its workers compute, as
// evaluate() does in thread mode.

TEST(Isolation, WarmCacheCellsNeverReachAWorker)
{
    const auto apps_list = smallApps();
    const Explorer ex(tech);
    runtime::ArtifactCache cache;
    SweepOptions options;
    options.cache = &cache;
    (void)runSweep(apps_list, ex, tech, options);
    const SweepOutcome warm_thread =
        runSweep(apps_list, ex, tech, options);
    ASSERT_EQ(warm_thread.stats.cache_hits, 6);

    // A dispatched cell would kill its worker: nothing is dispatched.
    FaultScope fault(FaultStage::kWorkerKill, 1);
    options.isolate = IsolateMode::kProcess;
    for (int jobs : {1, 2}) {
        options.jobs = jobs;
        const SweepOutcome warm_process =
            runSweep(apps_list, ex, tech, options);
        EXPECT_EQ(warm_process.stats.cache_hits, 6) << "jobs " << jobs;
        EXPECT_EQ(warm_process.stats.cache_misses, 0) << "jobs " << jobs;
        EXPECT_EQ(warm_process.stats.worker_restarts, 0)
            << "jobs " << jobs;
        EXPECT_EQ(outcomeBytes(warm_thread), outcomeBytes(warm_process))
            << "jobs " << jobs;
    }
}

TEST(Isolation, ColdProcessSweepFillsTheCache)
{
    const auto apps_list = smallApps();
    const Explorer ex(tech);

    // The in-process reference: a cold sweep, then a warm one.
    runtime::ArtifactCache thread_cache;
    SweepOptions options;
    options.cache = &thread_cache;
    const SweepOutcome cold_reference =
        runSweep(apps_list, ex, tech, options);
    const SweepOutcome warm_reference =
        runSweep(apps_list, ex, tech, options);

    runtime::ArtifactCache process_cache;
    options.cache = &process_cache;
    options.isolate = IsolateMode::kProcess;
    options.jobs = 2;
    const SweepOutcome cold = runSweep(apps_list, ex, tech, options);
    EXPECT_EQ(cold.stats.cache_misses, 6);
    EXPECT_EQ(outcomeBytes(cold_reference), outcomeBytes(cold));

    // Every entry is the record evaluate() memoizes in thread mode.
    for (const apps::AppInfo &app : apps_list) {
        const int k = ex.options().max_merged_subgraphs;
        for (const PeVariant &v :
             {ex.baselineVariant(), ex.subsetVariant(app),
              ex.specializedVariant(app, k).value()}) {
            const std::string key =
                evalCacheKey(app, v, options.level, tech, options.eval);
            const std::optional<std::string> stored =
                process_cache.get(key);
            ASSERT_TRUE(stored.has_value()) << key;
            EXPECT_EQ(stored, thread_cache.get(key)) << key;
        }
    }

    options.isolate = IsolateMode::kInProcess;
    options.jobs = 1;
    const SweepOutcome warm = runSweep(apps_list, ex, tech, options);
    EXPECT_EQ(warm.stats.cache_misses, 0);
    EXPECT_EQ(outcomeBytes(warm_reference), outcomeBytes(warm));
}

TEST(Isolation, DegradedWorkerResultsAreNotCached)
{
    const auto apps_list = smallApps();
    const Explorer ex(tech);
    const SweepOutcome reference =
        runSweep(apps_list, ex, tech, SweepOptions{});

    // Every cell degrades (as under CI's --cell-deadline 0.001).  A
    // degraded result is not what the configured knobs compute, so
    // it must not be served to a later sweep under their key.
    runtime::ArtifactCache cache;
    SweepOptions options;
    options.cache = &cache;
    options.isolate = IsolateMode::kProcess;
    options.cell_deadline_ms = 1e-6;
    const SweepOutcome degraded = runSweep(apps_list, ex, tech, options);
    ASSERT_EQ(degraded.report.degraded, 6);

    SweepOptions later_options;
    later_options.cache = &cache;
    const SweepOutcome later =
        runSweep(apps_list, ex, tech, later_options);
    EXPECT_EQ(later.report.degraded, 0);
    EXPECT_EQ(later.stats.cells_degraded, 0);
    EXPECT_EQ(outcomeBytes(reference), outcomeBytes(later));
}

TEST(Isolation, WorkerKillIsRetriedTransparently)
{
    const auto apps_list = smallApps();
    const Explorer ex(tech);

    SweepOptions inproc;
    const SweepOutcome reference =
        runSweep(apps_list, ex, tech, inproc);

    // The 2nd dispatched cell kills its worker once; the retry on
    // the respawned worker succeeds and the report shows no trace.
    FaultScope fault(FaultStage::kWorkerKill, 2);
    SweepOptions options;
    options.isolate = IsolateMode::kProcess;
    const SweepOutcome isolated =
        runSweep(apps_list, ex, tech, options);
    EXPECT_EQ(isolated.report.evaluated, 6);
    EXPECT_EQ(outcomeBytes(reference), outcomeBytes(isolated));
    EXPECT_EQ(isolated.stats.worker_restarts, 1);
    EXPECT_EQ(isolated.stats.worker_retries, 1);
    EXPECT_EQ(isolated.stats.worker_quarantined, 0);
}

TEST(Isolation, PoisonCellIsQuarantinedDurably)
{
    ScratchDir dir("quarantine");
    const auto apps_list = smallApps();
    const Explorer ex(tech);

    SweepOptions options;
    options.isolate = IsolateMode::kProcess;
    options.cell_retries = 2;
    options.journal_dir = dir.str();

    std::string first_bytes;
    {
        // The first cell kills its worker on all 3 allowed attempts.
        FaultScope fault(FaultStage::kWorkerKill, 1, 3);
        const SweepOutcome outcome =
            runSweep(apps_list, ex, tech, options);
        EXPECT_EQ(outcome.report.evaluated, 5);
        ASSERT_EQ(outcome.report.failures.size(), 1u);
        const StageFailure &f = outcome.report.failures[0];
        EXPECT_EQ(f.stage, "worker");
        EXPECT_EQ(f.status.code(), ErrorCode::kWorkerCrashed);
        EXPECT_EQ(f.attempts, 3);
        EXPECT_NE(f.status.message().find("(crash)"),
                  std::string::npos)
            << f.status.message();
        EXPECT_EQ(outcome.stats.worker_quarantined, 1);
        EXPECT_EQ(outcome.stats.worker_retries, 2);
        EXPECT_EQ(outcome.stats.worker_restarts, 3);
        first_bytes = outcomeBytes(outcome);
    }

    // The quarantine verdict is durable: a resume (faults disarmed)
    // replays it from the journal instead of re-running the cell —
    // a poison cell must never get a second chance to kill workers.
    options.resume = true;
    const SweepOutcome resumed =
        runSweep(apps_list, ex, tech, options);
    EXPECT_EQ(resumed.stats.cells_replayed, 6);
    EXPECT_EQ(resumed.stats.tasks_run, 0);
    EXPECT_EQ(resumed.stats.worker_restarts, 0);
    EXPECT_EQ(first_bytes, outcomeBytes(resumed));
}

TEST(Isolation, HangingWorkerIsQuarantinedWithCause)
{
    const auto apps_list = smallApps();
    const Explorer ex(tech);

    FaultScope fault(FaultStage::kWorkerHang, 1, 2);
    SweepOptions options;
    options.isolate = IsolateMode::kProcess;
    options.cell_retries = 1;
    options.worker_heartbeat_ms = 5.0;
    options.worker_liveness_timeout_ms = 100.0;
    const SweepOutcome outcome =
        runSweep(apps_list, ex, tech, options);
    EXPECT_EQ(outcome.report.evaluated, 5);
    ASSERT_EQ(outcome.report.failures.size(), 1u);
    EXPECT_EQ(outcome.report.failures[0].status.code(),
              ErrorCode::kWorkerCrashed);
    EXPECT_NE(
        outcome.report.failures[0].status.message().find("(hang)"),
        std::string::npos)
        << outcome.report.failures[0].status.message();
}

TEST(Durability, MidJournalCorruptionReEvaluatesOnlyLostCells)
{
    ScratchDir dir("midjournal");
    const auto apps_list = smallApps();
    const Explorer ex(tech);

    SweepOptions ref_options;
    const SweepOutcome reference =
        runSweep(apps_list, ex, tech, ref_options);
    ASSERT_EQ(reference.report.evaluated, 6);

    SweepOptions options;
    options.journal_dir = dir.str();
    const SweepOutcome first =
        runSweep(apps_list, ex, tech, options);
    ASSERT_EQ(first.report.evaluated, 6);

    // Flip a payload byte of the *third* cell record — corruption in
    // the middle of the journal, with valid frames after it.  Replay
    // must keep only the prefix (2 cells), count the drop, and the
    // resume must re-evaluate exactly the lost cells.
    const std::string path = dir.str() + "/sweep.journal";
    {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        std::string all((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
        const std::string cell_header = std::string(kJournalMagic) +
                                        ' ' +
                                        std::to_string(kJournalVersion) +
                                        " cell sum";
        std::size_t at = 0;
        for (int i = 0; i < 3; ++i) {
            at = all.find(cell_header, at + 1);
            ASSERT_NE(at, std::string::npos) << "cell frame " << i;
        }
        const std::size_t header_end = all.find('\n', at);
        ASSERT_NE(header_end, std::string::npos);
        f.seekp(static_cast<std::streamoff>(header_end + 1));
        f.put(all[header_end + 1] == 'X' ? 'Y' : 'X');
    }

    const long long drops_before =
        telemetry::counter("apex.record.tail_drops").value();
    options.resume = true;
    const SweepOutcome resumed =
        runSweep(apps_list, ex, tech, options);
    EXPECT_EQ(
        telemetry::counter("apex.record.tail_drops").value(),
        drops_before + 1);
    EXPECT_EQ(resumed.stats.cells_replayed, 2);
    EXPECT_EQ(resumed.report.evaluated, 6);
    EXPECT_EQ(outcomeBytes(reference), outcomeBytes(resumed));

    // The re-run cells were re-journaled: a further resume replays
    // all six from a clean log.
    const SweepOutcome third =
        runSweep(apps_list, ex, tech, options);
    EXPECT_EQ(third.stats.cells_replayed, 6);
    EXPECT_EQ(third.stats.tasks_run, 0);
    EXPECT_EQ(outcomeBytes(reference), outcomeBytes(third));
}

// --- Graceful degradation ----------------------------------------------

TEST(Degradation, CellDeadlineFallsBackToCheapKnobs)
{
    const auto apps_list = smallApps();
    const Explorer ex(tech);
    SweepOptions options;
    // An unmeetable per-cell budget: every cell times out and takes
    // the degraded retry, which (unbounded) succeeds.
    options.cell_deadline_ms = 1e-6;

    const SweepOutcome outcome =
        runSweep(apps_list, ex, tech, options);
    EXPECT_EQ(outcome.report.evaluated, 6);
    EXPECT_EQ(outcome.report.degraded, 6);
    EXPECT_EQ(outcome.stats.cells_degraded, 6);
    EXPECT_TRUE(outcome.report.failures.empty());
    for (const SweepEntry &e : outcome.entries)
        EXPECT_TRUE(e.result.degraded) << e.app << '/' << e.variant;
    // The fallback is observable: a "deadline" warning per cell.
    EXPECT_EQ(outcome.report.diagnostics.count(Severity::kWarning),
              6);
    EXPECT_NE(outcome.report.summary().find("6 degraded"),
              std::string::npos);
}

TEST(Degradation, ResumedDegradedCellsAreNotRecountedInStats)
{
    ScratchDir dir("degradedresume");
    const auto apps_list = smallApps();
    const Explorer ex(tech);
    SweepOptions options;
    options.journal_dir = dir.str();
    options.cell_deadline_ms = 1e-6; // every cell degrades

    const SweepOutcome first =
        runSweep(apps_list, ex, tech, options);
    ASSERT_EQ(first.report.degraded, 6);
    ASSERT_EQ(first.stats.cells_degraded, 6);

    options.resume = true;
    const SweepOutcome second =
        runSweep(apps_list, ex, tech, options);
    EXPECT_EQ(second.stats.cells_replayed, 6);
    // The report mirrors the durable outcome: byte-identical to the
    // uninterrupted run, degraded cells included.
    EXPECT_EQ(second.report.degraded, 6);
    EXPECT_EQ(outcomeBytes(first), outcomeBytes(second));
    // The runtime stats count this run's work only.  Regression: a
    // resumed sweep used to recount every replayed degraded cell in
    // cells_degraded, so resuming inflated the counter each time.
    EXPECT_EQ(second.stats.tasks_run, 0);
    EXPECT_EQ(second.stats.cells_degraded, 0);
}

TEST(Degradation, ExpiredSweepDeadlineIsTimeoutNotHang)
{
    const auto apps_list = smallApps();
    const Explorer ex(tech);
    SweepOptions options;
    options.deadline = Deadline::after(-1.0);

    const SweepOutcome outcome =
        runSweep(apps_list, ex, tech, options);
    EXPECT_EQ(outcome.report.evaluated, 0);
    ASSERT_EQ(outcome.report.failures.size(), 2u);
    for (const StageFailure &f : outcome.report.failures) {
        EXPECT_EQ(f.status.code(), ErrorCode::kTimeout);
        EXPECT_EQ(f.stage, "deadline");
    }
}

// --- Resource exhaustion (disk full / I/O error) -----------------------

TEST(ResourceExhaustion, RecordLogLatchesAndTruncatesOnFailedAppend)
{
    ScratchDir dir("disk_full_log");
    const std::string path = dir.str() + "/log";
    {
        runtime::RecordLog log;
        ASSERT_TRUE(log.open(path, "apextest", 1, true).ok());
        ASSERT_TRUE(log.append("a", "durable").ok());

        FaultScope fault(FaultStage::kDiskFull, 1);
        const Status s = log.append("b", "torn away");
        ASSERT_FALSE(s.ok());
        EXPECT_EQ(s.code(), ErrorCode::kResourceExhausted);

        // The failure latches: the log deactivates, keeps the error,
        // and every later append reports it without touching disk.
        EXPECT_FALSE(log.active());
        EXPECT_EQ(log.lastError().code(),
                  ErrorCode::kResourceExhausted);
        EXPECT_EQ(log.append("c", "too late").code(),
                  ErrorCode::kResourceExhausted);
    }
    // The half-written frame was truncated back out (shrinking a
    // file needs no free space, so this works on a full disk): the
    // reopened log is *clean* — committed frames only, no corrupt
    // tail to drop.
    runtime::RecordLog log;
    ASSERT_TRUE(log.open(path, "apextest", 1, true).ok());
    EXPECT_EQ(log.recovery(), runtime::LogRecovery::kClean);
    ASSERT_EQ(log.records().size(), 1u);
    EXPECT_EQ(log.records()[0].payload, "durable");
    // And the repaired log accepts appends again.
    EXPECT_TRUE(log.append("d", "after recovery").ok());
    EXPECT_TRUE(log.lastError().ok());
}

TEST(ResourceExhaustion, CacheDiskTierDegradesAndRecovers)
{
    ScratchDir dir("disk_full_cache");
    runtime::CacheOptions copt;
    copt.disk_dir = dir.str() + "/cache";
    copt.disk_reprobe_ms = 0.0; // Re-probe on the next access.
    runtime::ArtifactCache cache(copt);
    telemetry::Gauge &disabled =
        telemetry::gauge("apex.cache.disk_disabled");

    cache.put("k1", "v1");
    EXPECT_FALSE(cache.diskDisabled());
    EXPECT_TRUE(fs::exists(cache.diskPathFor("k1")));

    {
        FaultScope fault(FaultStage::kDiskFull, 1);
        cache.put("k2", "v2"); // Disk write fails.
    }
    EXPECT_TRUE(cache.diskDisabled());
    EXPECT_EQ(disabled.value(), 1.0);
    EXPECT_FALSE(fs::exists(cache.diskPathFor("k2")));
    // Memory tier is untouched: the sweep continues, just undurably.
    EXPECT_EQ(cache.get("k2").value_or(""), "v2");

    // The fault cleared ("space returned"): the next put re-probes
    // the directory and re-enables the tier.
    cache.put("k3", "v3");
    EXPECT_FALSE(cache.diskDisabled());
    EXPECT_EQ(disabled.value(), 0.0);
    EXPECT_TRUE(fs::exists(cache.diskPathFor("k3")));
}

TEST(ResourceExhaustion, CacheStaysMemoryOnlyWhenReprobingIsOff)
{
    ScratchDir dir("disk_full_noreprobe");
    runtime::CacheOptions copt;
    copt.disk_dir = dir.str() + "/cache";
    copt.disk_reprobe_ms = -1.0; // Never re-probe.
    runtime::ArtifactCache cache(copt);

    {
        FaultScope fault(FaultStage::kDiskFull, 1);
        cache.put("k1", "v1");
    }
    EXPECT_TRUE(cache.diskDisabled());
    cache.put("k2", "v2"); // Would succeed — but the latch holds.
    EXPECT_TRUE(cache.diskDisabled());
    EXPECT_FALSE(fs::exists(cache.diskPathFor("k2")));
    EXPECT_EQ(cache.get("k2").value_or(""), "v2");
}

TEST(ResourceExhaustion, JournalWriteFailureFailsSweepLoudly)
{
    ScratchDir dir("disk_full_journal");
    const auto apps_list = smallApps();
    const Explorer ex(tech);
    SweepOptions options;
    options.journal_dir = dir.str();

    // Append #1 is the journal header; #2 the first completed unit
    // of work.  Failing #2 breaks the durability promise mid-run.
    SweepOutcome broken;
    {
        FaultScope fault(FaultStage::kDiskFull, 2);
        broken = runSweep(apps_list, ex, tech, options);
    }
    ASSERT_FALSE(broken.durability.ok());
    EXPECT_EQ(broken.durability.code(),
              ErrorCode::kResourceExhausted);
    EXPECT_EQ(exitCodeFor(broken.durability.code()), 17);
    // The failure is loud in the report too, not only in the code.
    bool durability_diag = false;
    for (const DiagnosticRecord &r :
         broken.report.diagnostics.records())
        if (r.severity == Severity::kError &&
            r.stage == "durability")
            durability_diag = true;
    EXPECT_TRUE(durability_diag);
    // The sweep itself still completed — the work is reported, only
    // the checkpoint promise broke.
    EXPECT_GT(broken.report.evaluated, 0);

    // The truncated journal replays cleanly: resuming completes the
    // sweep durably and byte-identically to an undisturbed run.
    options.resume = true;
    const SweepOutcome resumed =
        runSweep(apps_list, ex, tech, options);
    EXPECT_TRUE(resumed.durability.ok());
    const SweepOutcome reference =
        runSweep(apps_list, ex, tech, SweepOptions{});
    EXPECT_EQ(outcomeBytes(resumed), outcomeBytes(reference));
}

TEST(ResourceExhaustion, JournalOpenFailureIsAlsoLoud)
{
    ScratchDir dir("disk_full_open");
    const auto apps_list = smallApps();
    const Explorer ex(tech);
    SweepOptions options;
    options.journal_dir = dir.str();
    options.deadline = Deadline::after(0.000001); // Cheap cells.

    // Append #1 — the header written by open() — fails: journaling
    // never starts, and the sweep must say so.
    FaultScope fault(FaultStage::kDiskFull, 1);
    const SweepOutcome outcome =
        runSweep(apps_list, ex, tech, options);
    ASSERT_FALSE(outcome.durability.ok());
    EXPECT_EQ(outcome.durability.code(),
              ErrorCode::kResourceExhausted);
    EXPECT_NE(outcome.durability.toString().find("opening sweep "
                                                 "journal"),
              std::string::npos);
}

TEST(Degradation, NonOptimalCliqueIsSurfacedAsWarning)
{
    const auto apps_list = smallApps();
    ExplorerOptions xo;
    // A one-node branch-and-bound budget: every non-trivial clique
    // search stops at the greedy seed, non-optimally.
    xo.merge.clique_budget = 1;
    const Explorer ex(tech, xo);
    SweepOptions options;

    const SweepOutcome outcome =
        runSweep(apps_list, ex, tech, options);
    EXPECT_GT(outcome.stats.non_optimal_cliques, 0);
    bool merge_warning = false;
    for (const DiagnosticRecord &r :
         outcome.report.diagnostics.records())
        if (r.severity == Severity::kWarning && r.stage == "merge")
            merge_warning = true;
    EXPECT_TRUE(merge_warning);
}

} // namespace
} // namespace apex::core

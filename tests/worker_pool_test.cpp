/**
 * Supervised worker-pool tests: the wire frame decoder over partial
 * and corrupt byte streams, crash/hang/garbage fault recovery with
 * deterministic retry accounting, poison-task quarantine, and
 * cooperative cancellation.  The sweep-level process-isolation
 * contract (byte-identical reports, durable quarantine) is covered in
 * durability_test.cpp, which owns the sweep fixtures.
 */
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/fault.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/wire.hpp"
#include "runtime/worker_pool.hpp"

namespace apex::runtime {
namespace {

// --- Wire frame decoder ------------------------------------------------

TEST(WireDecoder, ReassemblesFramesFromSingleByteChunks)
{
    const std::string stream =
        encodeFrame(kWireMagic, kWireVersion, "resp", "first") +
        encodeFrame(kWireMagic, kWireVersion, "hb", "") +
        encodeFrame(kWireMagic, kWireVersion, "resp",
                    std::string("bin\0\n payload", 13));
    FrameDecoder decoder(kWireMagic, kWireVersion);
    std::vector<FramedRecord> got;
    for (char c : stream) {
        decoder.feed(&c, 1);
        FramedRecord rec;
        while (decoder.next(&rec) == DecodeResult::kFrame)
            got.push_back(rec);
    }
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].type, "resp");
    EXPECT_EQ(got[0].payload, "first");
    EXPECT_EQ(got[1].type, "hb");
    EXPECT_EQ(got[1].payload, "");
    EXPECT_EQ(got[2].payload, std::string("bin\0\n payload", 13));
    EXPECT_FALSE(decoder.corrupt());
}

TEST(WireDecoder, PartialFrameIsNeedMoreNotCorrupt)
{
    const std::string frame =
        encodeFrame(kWireMagic, kWireVersion, "resp", "payload");
    FrameDecoder decoder(kWireMagic, kWireVersion);
    decoder.feed(frame.data(), frame.size() - 3);
    FramedRecord rec;
    EXPECT_EQ(decoder.next(&rec), DecodeResult::kNeedMore);
    EXPECT_FALSE(decoder.corrupt());
    decoder.feed(frame.data() + frame.size() - 3, 3);
    EXPECT_EQ(decoder.next(&rec), DecodeResult::kFrame);
    EXPECT_EQ(rec.payload, "payload");
}

TEST(WireDecoder, GarbageLatchesCorrupt)
{
    FrameDecoder decoder(kWireMagic, kWireVersion);
    const std::string garbage = "not a frame at all\n";
    decoder.feed(garbage.data(), garbage.size());
    FramedRecord rec;
    EXPECT_EQ(decoder.next(&rec), DecodeResult::kCorrupt);
    EXPECT_TRUE(decoder.corrupt());
    // A pipe has no resync point: once garbled, always garbled —
    // even if well-formed bytes arrive later.
    const std::string frame =
        encodeFrame(kWireMagic, kWireVersion, "resp", "late");
    decoder.feed(frame.data(), frame.size());
    EXPECT_EQ(decoder.next(&rec), DecodeResult::kCorrupt);
}

TEST(WireDecoder, ChecksumMismatchIsCorrupt)
{
    std::string frame =
        encodeFrame(kWireMagic, kWireVersion, "resp", "payload");
    frame[frame.size() - 3] ^= 0x20; // flip a payload byte
    FrameDecoder decoder(kWireMagic, kWireVersion);
    decoder.feed(frame.data(), frame.size());
    FramedRecord rec;
    EXPECT_EQ(decoder.next(&rec), DecodeResult::kCorrupt);
}

TEST(WireDecoder, OversizedLengthFieldIsCorruptNotAllocation)
{
    // A length field beyond the bound must poison the stream up
    // front; honoring it would buffer unbounded memory waiting for a
    // payload that never arrives.
    FrameDecoder decoder(kWireMagic, kWireVersion);
    const std::string header =
        std::string(kWireMagic) + " 1 resp sum 0000000000000000 len " +
        std::to_string(decoder.maxPayload() + 1) + "\n";
    decoder.feed(header.data(), header.size());
    FramedRecord rec;
    EXPECT_EQ(decoder.next(&rec), DecodeResult::kCorrupt);
    EXPECT_NE(decoder.corruptReason().find("exceeds"),
              std::string::npos)
        << decoder.corruptReason();
}

TEST(WireDecoder, CustomPayloadLimitIsEnforced)
{
    FrameDecoder decoder(kWireMagic, kWireVersion, 16);
    EXPECT_EQ(decoder.maxPayload(), 16u);
    const std::string big(32, 'x');
    const std::string frame =
        encodeFrame(kWireMagic, kWireVersion, "resp", big);
    decoder.feed(frame.data(), frame.size());
    FramedRecord rec;
    EXPECT_EQ(decoder.next(&rec), DecodeResult::kCorrupt);
    EXPECT_NE(decoder.corruptReason().find("exceeds"),
              std::string::npos);
    // A payload at the limit still decodes.
    FrameDecoder ok(kWireMagic, kWireVersion, 16);
    const std::string fits =
        encodeFrame(kWireMagic, kWireVersion, "resp",
                    std::string(16, 'y'));
    ok.feed(fits.data(), fits.size());
    EXPECT_EQ(ok.next(&rec), DecodeResult::kFrame);
}

TEST(WireDecoder, VersionMismatchNamesBothVersions)
{
    FrameDecoder decoder(kWireMagic, kWireVersion);
    const std::string frame =
        encodeFrame(kWireMagic, kWireVersion + 1, "resp", "x");
    decoder.feed(frame.data(), frame.size());
    FramedRecord rec;
    EXPECT_EQ(decoder.next(&rec), DecodeResult::kCorrupt);
    EXPECT_NE(decoder.corruptReason().find("version mismatch"),
              std::string::npos)
        << decoder.corruptReason();
}

TEST(WireDecoder, CorruptReasonEmptyWhileHealthy)
{
    FrameDecoder decoder(kWireMagic, kWireVersion);
    EXPECT_TRUE(decoder.corruptReason().empty());
    const std::string frame =
        encodeFrame(kWireMagic, kWireVersion, "resp", "fine");
    decoder.feed(frame.data(), frame.size());
    FramedRecord rec;
    EXPECT_EQ(decoder.next(&rec), DecodeResult::kFrame);
    EXPECT_TRUE(decoder.corruptReason().empty());
}

TEST(WireDecoder, DrainFdFeedsUntilEof)
{
    int fds[2] = {-1, -1};
    ASSERT_EQ(pipe(fds), 0);
    const std::string stream =
        encodeFrame(kWireMagic, kWireVersion, "resp", "one") +
        encodeFrame(kWireMagic, kWireVersion, "resp", "two");
    ASSERT_EQ(write(fds[1], stream.data(), stream.size()),
              static_cast<ssize_t>(stream.size()));
    close(fds[1]);
    FrameDecoder decoder(kWireMagic, kWireVersion);
    // A short read ends the drain early (on a blocking fd, looping
    // again could block forever); the EOF shows up on the next call.
    DrainResult drained;
    do {
        drained = drainFd(fds[0], decoder);
    } while (drained == DrainResult::kOpen);
    EXPECT_EQ(drained, DrainResult::kEof);
    close(fds[0]);
    FramedRecord rec;
    ASSERT_EQ(decoder.next(&rec), DecodeResult::kFrame);
    EXPECT_EQ(rec.payload, "one");
    ASSERT_EQ(decoder.next(&rec), DecodeResult::kFrame);
    EXPECT_EQ(rec.payload, "two");
    EXPECT_EQ(decoder.next(&rec), DecodeResult::kNeedMore);
}

TEST(WireDecoder, SingleReadModeDecodesAnExactBufferMultiple)
{
    // Pending bytes that are an exact multiple of the drain buffer
    // (16384) and already hold a complete frame: until-EAGAIN on a
    // blocking fd would read() again after the full read and block
    // on a quiet peer forever.  kSingleRead hands control back after
    // each read so the caller decodes what it holds.  A regression
    // here shows up as this test hanging.
    int fds[2] = {-1, -1};
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::string payload(16000, 'p');
    std::string frame =
        encodeFrame(kWireMagic, kWireVersion, "resp", payload);
    // Pad the payload until the encoded frame is exactly 16384
    // bytes (two passes: the first may change the len field's digit
    // count).
    for (int i = 0; i < 3 && frame.size() != 16384u; ++i) {
        payload.resize(payload.size() + (16384u - frame.size()));
        frame = encodeFrame(kWireMagic, kWireVersion, "resp",
                            payload);
    }
    ASSERT_EQ(frame.size(), 16384u);
    ASSERT_EQ(write(fds[1], frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));

    FrameDecoder decoder(kWireMagic, kWireVersion);
    FramedRecord rec;
    DecodeResult dr = decoder.next(&rec);
    for (int reads = 0;
         dr == DecodeResult::kNeedMore && reads < 64; ++reads) {
        ASSERT_EQ(drainFd(fds[0], decoder, DrainMode::kSingleRead),
                  DrainResult::kOpen);
        dr = decoder.next(&rec);
    }
    EXPECT_EQ(dr, DecodeResult::kFrame);
    EXPECT_EQ(rec.payload, payload);
    close(fds[0]);
    close(fds[1]);
}

TEST(WireWrite, StallTimeoutFailsInsteadOfBlockingForever)
{
    // A non-blocking socket (the service session shape) whose peer
    // never reads: writeAll must give up after the stall bound with
    // a Status, not park the writing thread in poll() forever.
    int fds[2] = {-1, -1};
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(fcntl(fds[1], F_SETFL,
                    fcntl(fds[1], F_GETFL, 0) | O_NONBLOCK),
              0);
    const int small = 4096;
    (void)setsockopt(fds[1], SOL_SOCKET, SO_SNDBUF, &small,
                     sizeof small);
    const std::string big(1u << 20, 'x');
    const Status s = writeAll(fds[1], big, /*stall_timeout_ms=*/50);
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.message().find("stalled"), std::string::npos)
        << s.toString();
    close(fds[0]);
    close(fds[1]);
}

TEST(WireDecoder, DeathCauseNamesAreStable)
{
    // Reports and journals carry these names; they must not drift.
    EXPECT_EQ(workerDeathCauseName(WorkerDeathCause::kCrash), "crash");
    EXPECT_EQ(workerDeathCauseName(WorkerDeathCause::kOom), "oom");
    EXPECT_EQ(workerDeathCauseName(WorkerDeathCause::kHang), "hang");
}

// --- Worker pool -------------------------------------------------------

WorkerPoolOptions
fastOptions(int workers)
{
    WorkerPoolOptions opts;
    opts.workers = workers;
    opts.heartbeat_ms = 5.0;
    opts.backoff_base_ms = 1.0;
    opts.backoff_cap_ms = 20.0;
    opts.shutdown_grace_ms = 500.0;
    return opts;
}

TEST(WorkerPool, EchoesInTaskOrderAcrossWorkers)
{
    WorkerPool pool(
        [](const std::string &task) { return "echo:" + task; },
        fastOptions(3));
    std::vector<std::string> tasks;
    for (int i = 0; i < 12; ++i)
        tasks.push_back("task-" + std::to_string(i));
    const auto outcomes = pool.run(tasks);
    ASSERT_EQ(outcomes.size(), tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_EQ(outcomes[i].fate, TaskFate::kDone) << i;
        EXPECT_EQ(outcomes[i].attempts, 1) << i;
        EXPECT_EQ(outcomes[i].response, "echo:" + tasks[i]) << i;
    }
    EXPECT_EQ(pool.stats().forks, 3);
    EXPECT_EQ(pool.stats().restarts, 0);
    EXPECT_EQ(pool.stats().quarantined, 0);
}

TEST(WorkerPool, WorkersAreReusedAcrossRuns)
{
    WorkerPool pool(
        [](const std::string &task) { return task + "!"; },
        fastOptions(2));
    EXPECT_EQ(pool.run({"a", "b"})[1].response, "b!");
    EXPECT_EQ(pool.run({"c"})[0].response, "c!");
    EXPECT_EQ(pool.stats().forks, 2); // no respawns between runs
}

TEST(WorkerPool, ThrowingHandlerIsACrashAndQuarantines)
{
    WorkerPoolOptions opts = fastOptions(2);
    opts.task_retries = 1;
    WorkerPool pool(
        [](const std::string &task) -> std::string {
            if (task == "poison")
                throw std::runtime_error("boom");
            return "ok:" + task;
        },
        opts);
    const auto outcomes = pool.run({"a", "poison", "b"});
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_EQ(outcomes[0].fate, TaskFate::kDone);
    EXPECT_EQ(outcomes[2].fate, TaskFate::kDone);
    EXPECT_EQ(outcomes[1].fate, TaskFate::kQuarantined);
    EXPECT_EQ(outcomes[1].cause, WorkerDeathCause::kCrash);
    EXPECT_EQ(outcomes[1].attempts, 2); // 1 try + 1 retry
    EXPECT_EQ(pool.stats().quarantined, 1);
    EXPECT_EQ(pool.stats().retries, 1);
    // Restart count is schedule-dependent here (0..2): if the live
    // worker drained the queue before the deaths were reaped, the
    // pool never needed a respawn.  The deterministic accounting is
    // pinned by the single-worker fault-injection tests below.
}

TEST(WorkerPool, InjectedKillIsRetriedTransparently)
{
    // Dispatch ordinal 2 kills its worker; the task is re-queued at
    // the front and the retry succeeds on the respawned worker.
    FaultScope fault(FaultStage::kWorkerKill, 2);
    WorkerPoolOptions opts = fastOptions(1);
    WorkerPool pool(
        [](const std::string &task) { return "ok:" + task; }, opts);
    const auto outcomes = pool.run({"a", "b", "c", "d"});
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        EXPECT_EQ(outcomes[i].fate, TaskFate::kDone) << i;
    EXPECT_EQ(outcomes[1].attempts, 2);
    EXPECT_EQ(outcomes[0].attempts, 1);
    EXPECT_EQ(pool.stats().restarts, 1);
    EXPECT_EQ(pool.stats().retries, 1);
    EXPECT_EQ(pool.stats().quarantined, 0);
}

TEST(WorkerPool, PoisonTaskIsQuarantinedAfterAllRetries)
{
    // Front-requeueing keeps the retried task on consecutive dispatch
    // ordinals, so a 3-wide kill window poisons exactly one task.
    FaultScope fault(FaultStage::kWorkerKill, 2, 3);
    WorkerPoolOptions opts = fastOptions(1);
    opts.task_retries = 2;
    WorkerPool pool(
        [](const std::string &task) { return "ok:" + task; }, opts);
    const auto outcomes = pool.run({"a", "b", "c"});
    EXPECT_EQ(outcomes[0].fate, TaskFate::kDone);
    EXPECT_EQ(outcomes[2].fate, TaskFate::kDone);
    EXPECT_EQ(outcomes[1].fate, TaskFate::kQuarantined);
    EXPECT_EQ(outcomes[1].cause, WorkerDeathCause::kCrash);
    EXPECT_EQ(outcomes[1].attempts, 3);
    EXPECT_EQ(pool.stats().quarantined, 1);
    EXPECT_EQ(pool.stats().retries, 2);
    EXPECT_EQ(pool.stats().restarts, 3);
}

TEST(WorkerPool, HangingWorkerIsKilledAndClassified)
{
    FaultScope fault(FaultStage::kWorkerHang, 1);
    WorkerPoolOptions opts = fastOptions(1);
    opts.task_retries = 0;
    opts.liveness_timeout_ms = 100.0;
    WorkerPool pool(
        [](const std::string &task) { return "ok:" + task; }, opts);
    const auto outcomes = pool.run({"frozen"});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].fate, TaskFate::kQuarantined);
    EXPECT_EQ(outcomes[0].cause, WorkerDeathCause::kHang);
    EXPECT_EQ(outcomes[0].attempts, 1);
}

TEST(WorkerPool, GarbledResultPipeIsACrashAndRetried)
{
    FaultScope fault(FaultStage::kWorkerGarbage, 1);
    WorkerPoolOptions opts = fastOptions(1);
    opts.task_retries = 1;
    WorkerPool pool(
        [](const std::string &task) { return "ok:" + task; }, opts);
    const auto outcomes = pool.run({"a", "b"});
    EXPECT_EQ(outcomes[0].fate, TaskFate::kDone);
    EXPECT_EQ(outcomes[0].attempts, 2);
    EXPECT_EQ(outcomes[1].fate, TaskFate::kDone);
    EXPECT_EQ(pool.stats().restarts, 1);
    EXPECT_EQ(pool.stats().retries, 1);
}

TEST(WorkerPool, CancelStopsDispatchAndReturnsPromptly)
{
    std::atomic<bool> cancel{false};
    WorkerPoolOptions opts = fastOptions(1);
    opts.cancel = &cancel;
    WorkerPool pool(
        [](const std::string &task) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(30));
            return "ok:" + task;
        },
        opts);
    std::thread trigger([&cancel] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        cancel.store(true);
    });
    const auto t0 = std::chrono::steady_clock::now();
    const auto outcomes =
        pool.run(std::vector<std::string>(50, "slow"));
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    trigger.join();
    ASSERT_EQ(outcomes.size(), 50u);
    int done = 0, cancelled = 0;
    for (const auto &o : outcomes) {
        if (o.fate == TaskFate::kDone) {
            ++done;
            EXPECT_EQ(o.response, "ok:slow");
        } else {
            EXPECT_EQ(o.fate, TaskFate::kCancelled);
            ++cancelled;
        }
    }
    EXPECT_GT(cancelled, 0);
    // 50 tasks x 30ms is 1.5s of work; the cancelled run must not
    // have come anywhere near finishing it.
    EXPECT_LT(wall_ms, 1200.0);
    EXPECT_EQ(done + cancelled, 50);
}

TEST(WorkerPool, TraceIdCrossesTheForkBoundary)
{
    // The handler runs in a forked child; the trace id must survive
    // the pipe protocol so daemon-side worker spans can be tied back
    // to the request that dispatched them (DESIGN.md Sec. 7i).
    WorkerPoolOptions opts = fastOptions(2);
    opts.trace_id = 42;
    WorkerPool pool(
        [](const std::string &task) {
            return task + ":" +
                   std::to_string(telemetry::currentTraceId());
        },
        opts);
    const auto outcomes = pool.run({"a", "b", "c"});
    ASSERT_EQ(outcomes.size(), 3u);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_EQ(outcomes[i].fate, TaskFate::kDone) << i;
        EXPECT_EQ(outcomes[i].response.substr(2), "42") << i;
    }
}

TEST(WorkerPool, UnsetTraceIdReachesChildrenAsZero)
{
    WorkerPool pool(
        [](const std::string &) {
            return std::to_string(telemetry::currentTraceId());
        },
        fastOptions(1));
    const auto outcomes = pool.run({"x"});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].response, "0");
}

} // namespace
} // namespace apex::runtime

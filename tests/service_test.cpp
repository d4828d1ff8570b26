/**
 * Tests of the DSE service: protocol round-trips, the bounded
 * admission queue, and the daemon end-to-end over a real Unix-domain
 * socket — handshake and version skew, info/metrics requests, the
 * sweep byte-identity contract against an in-process runSweep,
 * request coalescing under concurrent identical clients, rejection
 * when the admission queue is full, robustness against a client that
 * disconnects mid-stream, shutdown with a request in flight, and a
 * damaged sweep journal under the daemon's cache dir.
 *
 * The telemetry registry is process-global and monotonic, so every
 * assertion on an apex.service.* counter takes a delta around the
 * scenario instead of reading absolutes.
 */
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "core/encoding.hpp"
#include "core/explorer.hpp"
#include "core/fault.hpp"
#include "core/journal.hpp"
#include "core/sweep.hpp"
#include "ir/serialize.hpp"
#include "runtime/eventlog.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/wire.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/queue.hpp"
#include "service/server.hpp"
#include "service/version.hpp"
#include "frame_forge.hpp"

namespace apex::service {
namespace {

// ---------------------------------------------------------------
// Protocol payload round-trips
// ---------------------------------------------------------------

TEST(ServiceProtocol, HelloRoundTrips)
{
    HelloRequest req;
    req.protocol = 7;
    req.client = "a test client";
    HelloRequest back;
    ASSERT_TRUE(decodeHello(encodeHello(req), &back));
    EXPECT_EQ(back.protocol, 7);
    EXPECT_EQ(back.client, "a test client");

    HelloReply rep;
    rep.protocol = 3;
    rep.server_version = "apex deadbeef (Release) protocol v3";
    HelloReply rback;
    ASSERT_TRUE(decodeHelloReply(encodeHelloReply(rep), &rback));
    EXPECT_EQ(rback.protocol, 3);
    EXPECT_EQ(rback.server_version, rep.server_version);
}

TEST(ServiceProtocol, InfoReplyRoundTrips)
{
    InfoReply info;
    info.protocol = kProtocolVersion;
    info.version = versionString();
    info.commit = buildCommit();
    info.flags = buildFlags();
    InfoReply back;
    ASSERT_TRUE(decodeInfoReply(encodeInfoReply(info), &back));
    EXPECT_EQ(back.protocol, info.protocol);
    EXPECT_EQ(back.version, info.version);
    EXPECT_EQ(back.commit, info.commit);
    EXPECT_EQ(back.flags, info.flags);
}

TEST(ServiceProtocol, SweepRequestRoundTripsEveryKnob)
{
    SweepRequest req;
    req.id = 42;
    req.priority = -3;
    req.level = "pnr";
    req.isolate = "process";
    req.cell_retries = 5;
    req.deadline_ms = 1234.5;
    req.cell_deadline_ms = 0.25;
    req.want_progress = true;
    SweepRequest back;
    ASSERT_TRUE(decodeSweepRequest(encodeSweepRequest(req), &back));
    EXPECT_EQ(back.id, 42u);
    EXPECT_EQ(back.priority, -3);
    EXPECT_EQ(back.level, "pnr");
    EXPECT_EQ(back.isolate, "process");
    EXPECT_EQ(back.cell_retries, 5);
    EXPECT_DOUBLE_EQ(back.deadline_ms, 1234.5);
    EXPECT_DOUBLE_EQ(back.cell_deadline_ms, 0.25);
    EXPECT_TRUE(back.want_progress);
}

TEST(ServiceProtocol, AckRejectProgressRoundTrip)
{
    SweepAck ack;
    ack.id = 9;
    ack.coalesced = true;
    SweepAck aback;
    ASSERT_TRUE(decodeAck(encodeAck(ack), &aback));
    EXPECT_EQ(aback.id, 9u);
    EXPECT_TRUE(aback.coalesced);

    SweepReject rej;
    rej.id = 10;
    rej.code = ErrorCode::kUnavailable;
    rej.reason = "admission queue full";
    rej.retry_after_ms = 333.25;
    SweepReject rback;
    ASSERT_TRUE(decodeReject(encodeReject(rej), &rback));
    EXPECT_EQ(rback.id, 10u);
    EXPECT_EQ(rback.code, ErrorCode::kUnavailable);
    EXPECT_EQ(rback.reason, "admission queue full");
    EXPECT_DOUBLE_EQ(rback.retry_after_ms, 333.25);

    SweepProgressFrame p;
    p.id = 11;
    p.done = 3;
    p.total = 27;
    p.app = "camera";
    p.variant = "pe_base";
    SweepProgressFrame pback;
    ASSERT_TRUE(decodeProgress(encodeProgress(p), &pback));
    EXPECT_EQ(pback.id, 11u);
    EXPECT_EQ(pback.done, 3);
    EXPECT_EQ(pback.total, 27);
    EXPECT_EQ(pback.app, "camera");
    EXPECT_EQ(pback.variant, "pe_base");
}

TEST(ServiceProtocol, SweepReplyRoundTripsEntriesAndFailures)
{
    SweepReply rep;
    rep.id = 77;
    rep.deadline_bounded = true;
    rep.deadline_expired = true;
    rep.cancelled = false;
    core::SweepEntry e;
    e.app = "harris";
    e.variant = "pe_base";
    e.result.success = true;
    e.result.pe_count = 42;
    e.result.pe_area = 1234.5;
    e.result.pe_energy = 6.789;
    rep.entries.push_back(e);
    rep.report.evaluated = 1;
    rep.report.skipped = 2;
    rep.report.degraded = 1;
    StageFailure f;
    f.app = "stereo";
    f.variant = "pe_base";
    f.stage = "mapping";
    f.status = Status(ErrorCode::kTimeout, "deadline expired");
    f.attempts = 2;
    rep.report.failures.push_back(f);

    SweepReply back;
    ASSERT_TRUE(decodeSweepReply(encodeSweepReply(rep), &back));
    EXPECT_EQ(back.id, 77u);
    EXPECT_TRUE(back.deadline_bounded);
    EXPECT_TRUE(back.deadline_expired);
    EXPECT_FALSE(back.cancelled);
    ASSERT_EQ(back.entries.size(), 1u);
    EXPECT_EQ(back.entries[0].app, "harris");
    EXPECT_EQ(back.entries[0].result.pe_count, 42);
    EXPECT_DOUBLE_EQ(back.entries[0].result.pe_area, 1234.5);
    ASSERT_EQ(back.report.failures.size(), 1u);
    EXPECT_EQ(back.report.failures[0].stage, "mapping");
    EXPECT_EQ(back.report.failures[0].status.code(),
              ErrorCode::kTimeout);
    // The round-tripped reply renders to the same bytes.
    EXPECT_EQ(renderSweepText(back.entries, back.report),
              renderSweepText(rep.entries, rep.report));
    EXPECT_EQ(sweepExitCode(back), sweepExitCode(rep));
}

/** @p payload without its last field (the trace id, "0\n"). */
std::string
withoutTraceId(std::string payload)
{
    EXPECT_EQ(payload.substr(payload.size() - 2), "0\n");
    payload.erase(payload.size() - 2);
    return payload;
}

TEST(ServiceProtocol, DecodersRejectGarbage)
{
    HelloRequest hello;
    EXPECT_FALSE(decodeHello("not a payload", &hello));
    SweepRequest sweep;
    EXPECT_FALSE(decodeSweepRequest("", &sweep));
    SweepReply reply;
    EXPECT_FALSE(decodeSweepReply("3\nabc\n", &reply));
    // The trace id is a field like any other: a payload missing it
    // is malformed, not a request from an older peer.
    EXPECT_FALSE(decodeSweepRequest(
        withoutTraceId(encodeSweepRequest(SweepRequest{})), &sweep));
    SweepProgressFrame progress;
    EXPECT_FALSE(decodeProgress(
        withoutTraceId(encodeProgress(SweepProgressFrame{})),
        &progress));
}

TEST(ServiceProtocol, SweepOptionsForMapsEveryKnob)
{
    // A default-constructed request is unbounded.
    const Result<core::SweepOptions> plain =
        sweepOptionsFor(SweepRequest{});
    ASSERT_TRUE(plain.ok());
    EXPECT_TRUE(plain->deadline.isInfinite());
    EXPECT_EQ(plain->level, core::EvalLevel::kPostMapping);
    EXPECT_EQ(plain->isolate, core::IsolateMode::kInProcess);

    // A zero budget is already expired, as `apexc sweep --deadline 0`.
    SweepRequest req;
    req.level = "pipe";
    req.isolate = "process";
    req.cell_retries = 4;
    req.deadline_ms = 0.0;
    req.cell_deadline_ms = 7.5;
    req.trace_id = 99;
    const Result<core::SweepOptions> opts = sweepOptionsFor(req);
    ASSERT_TRUE(opts.ok());
    EXPECT_FALSE(opts->deadline.isInfinite());
    EXPECT_TRUE(opts->deadline.expired());
    EXPECT_EQ(opts->level, core::EvalLevel::kPostPipelining);
    EXPECT_EQ(opts->isolate, core::IsolateMode::kProcess);
    EXPECT_EQ(opts->cell_retries, 4);
    EXPECT_DOUBLE_EQ(opts->cell_deadline_ms, 7.5);
    EXPECT_EQ(opts->trace_id, 99u);

    req.level = "bogus";
    EXPECT_EQ(sweepOptionsFor(req).status().code(),
              ErrorCode::kInvalidArgument);
    req.level = "map";
    req.isolate = "bogus";
    EXPECT_EQ(sweepOptionsFor(req).status().code(),
              ErrorCode::kInvalidArgument);
}

TEST(ServiceProtocol, ForgedLengthsFailInsteadOfThrowing)
{
    // A checksum-valid frame can still carry hostile field values: a
    // string length of 10^18 or an entry count with nothing behind
    // it must decode to `false`, never to a huge allocation — a
    // bad_alloc/length_error escaping the dispatch loop would kill
    // the daemon for every connected client.
    HelloRequest hello;
    EXPECT_FALSE(
        decodeHello("1\n1000000000000000000\nx\n", &hello));
    SweepReply reply;
    // id, flags, then a forged entry count with no entries behind it
    // (the decoder must not reserve() on the count's say-so).
    EXPECT_FALSE(decodeSweepReply("7\n0 0 0\n999999999\n", &reply));
    // Valid prefix, then a forged per-string length inside an entry.
    EXPECT_FALSE(decodeSweepReply(
        "7\n0 0 0\n1\n1000000000000000000\nconv\n", &reply));
}

TEST(ServiceProtocol, GetStrBoundsAllocationToDeliveredBytes)
{
    // The wire-level guarantee behind the test above: getStr grows
    // its output only as the stream delivers bytes, so a forged
    // length costs at most one chunk of over-allocation.
    std::istringstream is("1000000000000000000\nabcd\n");
    std::string out;
    EXPECT_FALSE(core::enc::getStr(is, &out));
    EXPECT_LE(out.capacity(), 1u << 20);
}

TEST(ServiceProtocol, ExitCodeLadderMatchesBatchRules)
{
    SweepReply rep;
    rep.report.evaluated = 5;
    EXPECT_EQ(sweepExitCode(rep), 0);
    rep.cancelled = true;
    EXPECT_EQ(sweepExitCode(rep), exitCodeFor(ErrorCode::kCancelled));
    rep.cancelled = false;
    rep.report.evaluated = 0;
    rep.deadline_bounded = true;
    rep.deadline_expired = true;
    EXPECT_EQ(sweepExitCode(rep), exitCodeFor(ErrorCode::kTimeout));
    rep.deadline_bounded = false;
    rep.deadline_expired = false;
    StageFailure f;
    f.status = Status(ErrorCode::kMappingFailed, "no mapping");
    rep.report.failures.push_back(f);
    EXPECT_EQ(sweepExitCode(rep),
              exitCodeFor(ErrorCode::kMappingFailed));
}

// ---------------------------------------------------------------
// Admission queue
// ---------------------------------------------------------------

TEST(AdmissionQueue, OrdersByPriorityThenArrival)
{
    AdmissionQueue<int> q(8);
    ASSERT_TRUE(q.push(1, 0));
    ASSERT_TRUE(q.push(2, 5));
    ASSERT_TRUE(q.push(3, 5));
    ASSERT_TRUE(q.push(4, -1));
    EXPECT_EQ(q.pop().value(), 2); // Highest priority first,
    EXPECT_EQ(q.pop().value(), 3); // FIFO within a priority.
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 4);
}

TEST(AdmissionQueue, BoundedPushRejectsWhenFull)
{
    AdmissionQueue<int> q(2);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_FALSE(q.push(3));
    EXPECT_EQ(q.depth(), 2u);
    (void)q.pop();
    EXPECT_TRUE(q.push(3)); // Space freed, admission resumes.
}

TEST(AdmissionQueue, ShutdownAbandonsQueueAndWakesPoppers)
{
    // Abandonment: an item queued at shutdown is dropped, never
    // delivered, and the queue stays closed.
    AdmissionQueue<int> abandoned(8);
    ASSERT_TRUE(abandoned.push(1));
    abandoned.shutdown();
    EXPECT_FALSE(abandoned.pop().has_value());
    EXPECT_EQ(abandoned.depth(), 0u);
    EXPECT_FALSE(abandoned.push(2)); // Closed for good.

    // Wakeup: a popper parked on an empty queue is released with
    // nullopt.  Waiting for depth()==0 guarantees the queued item
    // went to the popper, not to abandonment; whether the popper is
    // already blocked in its second pop() when shutdown lands or
    // only reaches it afterwards, both orders must yield nullopt —
    // so the test is deterministic under any scheduling.
    AdmissionQueue<int> q(8);
    ASSERT_TRUE(q.push(1));
    std::thread popper([&q] {
        EXPECT_TRUE(q.pop().has_value());
        EXPECT_FALSE(q.pop().has_value());
    });
    while (q.depth() != 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    q.shutdown();
    popper.join();
}

TEST(AdmissionQueue, TracksDepthGauge)
{
    telemetry::Gauge &g =
        telemetry::gauge("test.service.queue_depth");
    AdmissionQueue<int> q(4, &g);
    EXPECT_EQ(g.value(), 0.0);
    (void)q.push(1);
    (void)q.push(2);
    EXPECT_EQ(g.value(), 2.0);
    (void)q.pop();
    EXPECT_EQ(g.value(), 1.0);
    q.shutdown();
    EXPECT_EQ(g.value(), 0.0);
}

// ---------------------------------------------------------------
// End-to-end over a real Unix-domain socket
// ---------------------------------------------------------------

std::string
scratchSocket(const std::string &tag)
{
    // sockaddr_un paths are short; /tmp keeps them under the limit
    // regardless of where gtest's TempDir points.
    return "/tmp/apex_service_test_" + tag + "_" +
           std::to_string(::getpid()) + ".sock";
}

/** A tiny request every e2e test can afford: the deadline is already
 * expired at admission, so every cell fails fast as a timeout and
 * the reply is still a full, deterministic report. */
SweepRequest
expiredSweepRequest()
{
    SweepRequest req;
    req.id = 1;
    req.level = "map";
    req.deadline_ms = 0.0;
    return req;
}

TEST(ServiceEndToEnd, InfoAndMetricsRequests)
{
    ServerOptions options;
    options.unix_path = scratchSocket("info");
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client client;
    ASSERT_TRUE(client.connect(options.unix_path).ok());
    EXPECT_EQ(client.serverVersion(), versionString());

    InfoReply info;
    ASSERT_TRUE(client.info(&info).ok());
    EXPECT_EQ(info.protocol, kProtocolVersion);
    EXPECT_EQ(info.version, versionString());
    EXPECT_EQ(info.commit, buildCommit());

    std::string metrics;
    ASSERT_TRUE(client.metrics(&metrics).ok());
    EXPECT_NE(metrics.find("apex.service.queue_depth"),
              std::string::npos);
    client.goodbye();
    server.stop();
}

TEST(ServiceEndToEnd, HelloVersionMismatchIsRefusedByName)
{
    ServerOptions options;
    options.unix_path = scratchSocket("skew");
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    // Hand-rolled connections: the Client class always speaks the
    // right version, and the point is to speak a wrong one — newer
    // or older, there is no negotiation.
    for (const int version : {kProtocolVersion + 1, kProtocolVersion - 1}) {
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof addr);
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, options.unix_path.c_str(),
                     sizeof addr.sun_path - 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::connect(fd,
                            reinterpret_cast<struct sockaddr *>(&addr),
                            sizeof addr),
                  0);
        HelloRequest hello;
        hello.protocol = version;
        hello.client = "time traveller";
        ASSERT_TRUE(runtime::writeFrame(fd, kServiceMagic,
                                        kServiceWireVersion, kFrameHello,
                                        encodeHello(hello))
                        .ok());
        runtime::FrameDecoder decoder(kServiceMagic,
                                      kServiceWireVersion);
        runtime::FramedRecord rec;
        runtime::DrainResult drained;
        do {
            // Single-read mode: the fd is blocking.
            drained = runtime::drainFd(fd, decoder,
                                       runtime::DrainMode::kSingleRead);
        } while (decoder.next(&rec) != runtime::DecodeResult::kFrame &&
                 drained == runtime::DrainResult::kOpen);
        EXPECT_EQ(rec.type, kFrameHelloErr) << "v" << version;
        EXPECT_NE(rec.payload.find("protocol mismatch"),
                  std::string::npos);
        // Both versions are named, so the skew is diagnosable from
        // either side of the connection.
        EXPECT_NE(rec.payload.find("client speaks v" +
                                   std::to_string(version)),
                  std::string::npos);
        EXPECT_NE(rec.payload.find("server speaks v" +
                                   std::to_string(kProtocolVersion)),
                  std::string::npos);
        ::close(fd);
    }
    server.stop();
}

TEST(ServiceEndToEnd, SweepReplyMatchesInProcessRunSweepBytes)
{
    ServerOptions options;
    options.unix_path = scratchSocket("bytes");
    options.jobs = 2; // Server-side resources must not leak into
                      // the reply bytes.
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client client;
    ASSERT_TRUE(client.connect(options.unix_path).ok());
    SweepRequest req = expiredSweepRequest();
    req.want_progress = true;
    SweepReply reply;
    int progress_frames = 0;
    ASSERT_TRUE(client
                    .runSweep(req, &reply,
                              [&progress_frames](
                                  const SweepProgressFrame &) {
                                  ++progress_frames;
                              })
                    .ok());
    client.goodbye();
    server.stop();

    // The oracle: the same sweep run in this process.  An expired
    // deadline produces no fresh cells, so no progress frames.
    core::SweepOptions opts;
    opts.level = core::EvalLevel::kPostMapping;
    opts.deadline = Deadline::after(0);
    const core::Explorer explorer(model::defaultTech());
    const core::SweepOutcome oracle = core::runSweep(
        apps::allApps(), explorer, model::defaultTech(), opts);

    EXPECT_EQ(renderSweepText(reply.entries, reply.report),
              renderSweepText(oracle.entries, oracle.report));
    EXPECT_EQ(progress_frames, 0);
    EXPECT_TRUE(reply.deadline_bounded);
    EXPECT_TRUE(reply.deadline_expired);
    EXPECT_EQ(sweepExitCode(reply), exitCodeFor(ErrorCode::kTimeout));
}

TEST(ServiceEndToEnd, ConcurrentIdenticalSweepsCoalesce)
{
    telemetry::Counter &coalesced =
        telemetry::counter("apex.service.coalesced");
    telemetry::Counter &sweeps =
        telemetry::counter("apex.service.sweeps");
    telemetry::Counter &accepted =
        telemetry::counter("apex.service.accepted");
    const long long coalesced0 = coalesced.value();
    const long long sweeps0 = sweeps.value();
    const long long accepted0 = accepted.value();

    ServerOptions options;
    options.unix_path = scratchSocket("coalesce");
    // Hold each dequeued job briefly so even instant sweeps leave a
    // deterministic window for the duplicates to attach in.
    options.admission_hold_ms = 400.0;
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    constexpr int kClients = 4;
    std::vector<std::string> outputs(kClients);
    std::vector<int> codes(kClients, -1);
    // One byte per client: std::vector<bool> packs the flags into
    // shared words, so concurrent writers would race.
    std::vector<char> coalesced_acks(kClients, false);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i)
        threads.emplace_back([&, i] {
            Client client;
            if (!client.connect(options.unix_path).ok())
                return;
            SweepAck ack;
            SweepReply reply;
            const Status s = client.runSweep(expiredSweepRequest(),
                                             &reply, nullptr, &ack);
            if (!s.ok())
                return;
            outputs[i] =
                renderSweepText(reply.entries, reply.report);
            codes[i] = sweepExitCode(reply);
            coalesced_acks[i] = ack.coalesced;
            client.goodbye();
        });
    for (std::thread &t : threads)
        t.join();
    server.stop();

    // Every client got the full report, with identical bytes.
    for (int i = 0; i < kClients; ++i) {
        ASSERT_FALSE(outputs[i].empty()) << "client " << i;
        EXPECT_EQ(outputs[i], outputs[0]) << "client " << i;
        EXPECT_EQ(codes[i], exitCodeFor(ErrorCode::kTimeout));
    }
    // All requests were accepted, duplicates attached to the one
    // execution: sweeps-run + coalesced = accepted.
    const long long ran = sweeps.value() - sweeps0;
    const long long attached = coalesced.value() - coalesced0;
    EXPECT_EQ(accepted.value() - accepted0, kClients);
    EXPECT_GT(attached, 0);
    EXPECT_EQ(ran + attached, kClients);
    int acked_coalesced = 0;
    for (const bool c : coalesced_acks)
        acked_coalesced += c ? 1 : 0;
    EXPECT_EQ(acked_coalesced, attached);
}

TEST(ServiceEndToEnd, FullQueueRejectsWithUnavailable)
{
    telemetry::Counter &rejected =
        telemetry::counter("apex.service.rejected");
    const long long rejected0 = rejected.value();

    ServerOptions options;
    options.unix_path = scratchSocket("reject");
    options.queue_depth = 1;
    options.executors = 1;
    options.admission_hold_ms = 1500.0;
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    // Three *distinct* requests (different retry budgets, so they do
    // not coalesce): the first occupies the executor, the second the
    // one queue slot, the third must be rejected.
    Client c1, c2, c3;
    ASSERT_TRUE(c1.connect(options.unix_path).ok());
    ASSERT_TRUE(c2.connect(options.unix_path).ok());
    ASSERT_TRUE(c3.connect(options.unix_path).ok());
    std::thread t1([&c1] {
        SweepRequest req = expiredSweepRequest();
        req.cell_retries = 1;
        SweepReply reply;
        EXPECT_TRUE(c1.runSweep(req, &reply).ok());
    });
    // Give request 1 time to be admitted and dequeued (the hold
    // keeps the executor busy while 2 and 3 arrive).
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    std::thread t2([&c2] {
        SweepRequest req = expiredSweepRequest();
        req.cell_retries = 2;
        SweepReply reply;
        EXPECT_TRUE(c2.runSweep(req, &reply).ok());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    SweepRequest req3 = expiredSweepRequest();
    req3.cell_retries = 3;
    SweepReply reply3;
    const Status s = c3.runSweep(req3, &reply3);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
    EXPECT_NE(s.message().find("admission queue full"),
              std::string::npos);
    EXPECT_GE(rejected.value() - rejected0, 1);
    t1.join();
    t2.join();
    c1.goodbye();
    c2.goodbye();
    c3.goodbye();
    server.stop();
}

TEST(ServiceEndToEnd, MidStreamDisconnectDoesNotHurtOthers)
{
    ServerOptions options;
    options.unix_path = scratchSocket("disconnect");
    options.admission_hold_ms = 300.0;
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    // A hand-rolled client that requests a sweep and slams the
    // connection before its report exists: handshake, sweep frame,
    // immediate close.  The daemon must drop the dead subscriber
    // when delivery fails, not wedge or crash.
    {
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof addr);
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, options.unix_path.c_str(),
                     sizeof addr.sun_path - 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(
            ::connect(fd,
                      reinterpret_cast<struct sockaddr *>(&addr),
                      sizeof addr),
            0);
        HelloRequest hello;
        hello.protocol = kProtocolVersion;
        hello.client = "doomed";
        ASSERT_TRUE(runtime::writeFrame(fd, kServiceMagic,
                                        kServiceWireVersion,
                                        kFrameHello,
                                        encodeHello(hello))
                        .ok());
        // Wait for hello.ok so the sweep frame is sent on a fully
        // established session.
        runtime::FrameDecoder decoder(kServiceMagic,
                                      kServiceWireVersion);
        runtime::FramedRecord rec;
        runtime::DrainResult drained;
        do {
            // Single-read mode: the fd is blocking.
            drained = runtime::drainFd(
                fd, decoder, runtime::DrainMode::kSingleRead);
        } while (decoder.next(&rec) !=
                     runtime::DecodeResult::kFrame &&
                 drained == runtime::DrainResult::kOpen);
        ASSERT_EQ(rec.type, kFrameHelloOk);
        ASSERT_TRUE(
            runtime::writeFrame(
                fd, kServiceMagic, kServiceWireVersion, kFrameSweep,
                encodeSweepRequest(expiredSweepRequest()))
                .ok());
        // Let the daemon admit the sweep, then vanish: the report
        // will be addressed to a session that no longer exists.
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        ::close(fd); // Gone before the report.
    }

    // The daemon must still serve a healthy client afterwards (the
    // hold guarantees the doomed sweep is still in flight when the
    // healthy request arrives).
    Client healthy;
    ASSERT_TRUE(healthy.connect(options.unix_path).ok());
    InfoReply info;
    EXPECT_TRUE(healthy.info(&info).ok());
    SweepReply reply;
    EXPECT_TRUE(healthy.runSweep(expiredSweepRequest(), &reply).ok());
    EXPECT_TRUE(reply.deadline_bounded);
    healthy.goodbye();
    server.stop();
}

// ---------------------------------------------------------------
// Resource exhaustion: shedding, accept backoff, resilient client
// ---------------------------------------------------------------

TEST(ServiceEndToEnd, QueueShedCarriesRetryAfterHintAndBoundsLog)
{
    telemetry::Counter &shed_queue =
        telemetry::counter("apex.service.shed_queue");
    telemetry::Counter &episodes =
        telemetry::counter("apex.service.saturation_episodes");
    const long long shed0 = shed_queue.value();
    const long long episodes0 = episodes.value();

    ServerOptions options;
    options.unix_path = scratchSocket("retry_after");
    options.queue_depth = 1;
    options.executors = 1;
    options.admission_hold_ms = 1500.0;
    options.retry_after_ms = 333.25;
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client c1, c2, c3, c4;
    ASSERT_TRUE(c1.connect(options.unix_path).ok());
    ASSERT_TRUE(c2.connect(options.unix_path).ok());
    ASSERT_TRUE(c3.connect(options.unix_path).ok());
    ASSERT_TRUE(c4.connect(options.unix_path).ok());
    std::thread t1([&c1] {
        SweepRequest req = expiredSweepRequest();
        req.cell_retries = 1;
        SweepReply reply;
        EXPECT_TRUE(c1.runSweep(req, &reply).ok());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    std::thread t2([&c2] {
        SweepRequest req = expiredSweepRequest();
        req.cell_retries = 2;
        SweepReply reply;
        EXPECT_TRUE(c2.runSweep(req, &reply).ok());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    // Two distinct rejected requests inside one saturation episode:
    // both frames carry the readmission hint, but the daemon logs
    // the episode once, not once per reject.
    SweepRequest req3 = expiredSweepRequest();
    req3.cell_retries = 3;
    SweepReply reply3;
    SweepReject rej3;
    const Status s3 =
        c3.runSweep(req3, &reply3, nullptr, nullptr, &rej3);
    ASSERT_FALSE(s3.ok());
    EXPECT_EQ(s3.code(), ErrorCode::kUnavailable);
    EXPECT_DOUBLE_EQ(rej3.retry_after_ms, 333.25);

    SweepRequest req4 = expiredSweepRequest();
    req4.cell_retries = 4;
    SweepReply reply4;
    SweepReject rej4;
    ASSERT_FALSE(
        c4.runSweep(req4, &reply4, nullptr, nullptr, &rej4).ok());
    EXPECT_DOUBLE_EQ(rej4.retry_after_ms, 333.25);

    EXPECT_GE(shed_queue.value() - shed0, 2);
    EXPECT_EQ(episodes.value() - episodes0, 1);

    t1.join();
    t2.join();
    c1.goodbye();
    c2.goodbye();
    c3.goodbye();
    c4.goodbye();
    server.stop();
}

TEST(ServiceEndToEnd, SessionCapShedsParallelSweepsFromOneSession)
{
    telemetry::Counter &shed_session =
        telemetry::counter("apex.service.shed_session");
    const long long shed0 = shed_session.value();

    ServerOptions options;
    options.unix_path = scratchSocket("sessioncap");
    options.session_cap = 1;
    options.admission_hold_ms = 800.0;
    options.retry_after_ms = 125.0;
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    // One hand-rolled session fires two *distinct* sweeps
    // back-to-back without waiting: the first is admitted, the
    // second trips the per-session cap and is shed — a greedy client
    // pays for its own burst instead of starving other sessions.
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options.unix_path.c_str(),
                 sizeof addr.sun_path - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd,
                        reinterpret_cast<struct sockaddr *>(&addr),
                        sizeof addr),
              0);
    HelloRequest hello;
    hello.protocol = kProtocolVersion;
    hello.client = "greedy";
    ASSERT_TRUE(runtime::writeFrame(fd, kServiceMagic,
                                    kServiceWireVersion, kFrameHello,
                                    encodeHello(hello))
                    .ok());
    runtime::FrameDecoder decoder(kServiceMagic, kServiceWireVersion);
    runtime::FramedRecord rec;
    auto read_frame = [&fd, &decoder, &rec] {
        runtime::DrainResult drained = runtime::DrainResult::kOpen;
        while (decoder.next(&rec) != runtime::DecodeResult::kFrame &&
               drained == runtime::DrainResult::kOpen)
            drained = runtime::drainFd(
                fd, decoder, runtime::DrainMode::kSingleRead);
    };
    read_frame();
    ASSERT_EQ(rec.type, kFrameHelloOk);

    SweepRequest first = expiredSweepRequest();
    first.id = 1;
    first.cell_retries = 1;
    SweepRequest second = expiredSweepRequest();
    second.id = 2;
    second.cell_retries = 2;
    ASSERT_TRUE(runtime::writeFrame(fd, kServiceMagic,
                                    kServiceWireVersion, kFrameSweep,
                                    encodeSweepRequest(first))
                    .ok());
    ASSERT_TRUE(runtime::writeFrame(fd, kServiceMagic,
                                    kServiceWireVersion, kFrameSweep,
                                    encodeSweepRequest(second))
                    .ok());

    read_frame();
    ASSERT_EQ(rec.type, kFrameAck);
    SweepAck ack;
    ASSERT_TRUE(decodeAck(rec.payload, &ack));
    EXPECT_EQ(ack.id, 1u);

    read_frame();
    ASSERT_EQ(rec.type, kFrameReject);
    SweepReject rej;
    ASSERT_TRUE(decodeReject(rec.payload, &rej));
    EXPECT_EQ(rej.id, 2u);
    EXPECT_EQ(rej.code, ErrorCode::kUnavailable);
    EXPECT_NE(rej.reason.find("in flight"), std::string::npos);
    EXPECT_DOUBLE_EQ(rej.retry_after_ms, 125.0);
    EXPECT_GE(shed_session.value() - shed0, 1);

    ::close(fd);
    server.stop();
}

TEST(ServiceEndToEnd, AcceptExhaustionPausesListenerAndRecovers)
{
    telemetry::Counter &exhausted =
        telemetry::counter("apex.resource.accept_exhausted");
    const long long exhausted0 = exhausted.value();

    // The episode's one record is its event-log line.
    const std::string log_path =
        ::testing::TempDir() + "apex_service_emfile_events_" +
        std::to_string(::getpid()) + ".jsonl";
    std::filesystem::remove(log_path);
    eventlog::Options log_options;
    log_options.path = log_path;
    ASSERT_TRUE(eventlog::configure(log_options));

    ServerOptions options;
    options.unix_path = scratchSocket("emfile");
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    // The first two accept() calls fail as if the fd table were
    // full.  The daemon must pause the listener with backoff (no
    // spin on the permanently readable fd) and pick the pending
    // connection up when "fds free up" — the client just sees a
    // slightly slower connect, never an error.
    Status connected;
    {
        FaultScope fault(FaultStage::kAcceptEmfile, 1, 2);
        Client client;
        connected = client.connect(options.unix_path);
        EXPECT_TRUE(connected.ok()) << connected.toString();
        if (connected.ok()) {
            InfoReply info;
            EXPECT_TRUE(client.info(&info).ok());
            client.goodbye();
        }
    }
    EXPECT_EQ(exhausted.value() - exhausted0, 2);
    server.stop();
    eventlog::shutdown();

    std::ifstream log(log_path);
    int accept_lines = 0;
    for (std::string line; std::getline(log, line);)
        if (line.find("\"component\":\"service.accept\"") !=
            std::string::npos)
            ++accept_lines;
    EXPECT_EQ(accept_lines, 1); // One episode, one line.
    std::filesystem::remove(log_path);
}

TEST(ServiceEndToEnd, StopClosesInFlightRequestsAsUnavailable)
{
    // stop() (apexd's SIGTERM path) cancels the running sweep, but
    // its report is never delivered: the io thread is winding down.
    // The client sees the connection close — kUnavailable, the code
    // a --retries client reconnects on.
    telemetry::Counter &accepted =
        telemetry::counter("apex.service.accepted");
    const long long accepted0 = accepted.value();

    ServerOptions options;
    options.unix_path = scratchSocket("stop");
    options.admission_hold_ms = 400.0;
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client client;
    ASSERT_TRUE(client.connect(options.unix_path).ok());
    Status status;
    std::thread requester([&client, &status] {
        SweepReply reply;
        status = client.runSweep(expiredSweepRequest(), &reply);
    });
    // Stop only once the job is admitted and held by the executor.
    for (int i = 0; i < 500 && accepted.value() == accepted0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_GT(accepted.value(), accepted0);
    server.stop();
    requester.join();
    EXPECT_EQ(status.code(), ErrorCode::kUnavailable)
        << status.toString();
}

TEST(ServiceEndToEnd, ForgedJournalLengthIsADamagedTailNotACrash)
{
    // A sweep journal under the daemon's cache dir whose last frame
    // claims a length no reader may honor: the next identical
    // request replays the prefix, recomputes the rest, serves the
    // same report, and the daemon stays up.
    const std::string cache_dir =
        ::testing::TempDir() + "apex_service_forged_journal_" +
        std::to_string(::getpid());
    std::filesystem::remove_all(cache_dir);
    ServerOptions options;
    options.unix_path = scratchSocket("forged_journal");
    options.cache_dir = cache_dir;
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client client;
    ASSERT_TRUE(client.connect(options.unix_path).ok());
    SweepRequest req;
    req.id = 1;
    req.level = "map";
    SweepReply first;
    ASSERT_TRUE(client.runSweep(req, &first).ok());

    std::string journal;
    for (const auto &entry :
         std::filesystem::directory_iterator(cache_dir))
        if (entry.path().filename().string().rfind("sweep-", 0) == 0)
            journal = (entry.path() / "sweep.journal").string();
    ASSERT_FALSE(journal.empty());
    test::forgeFrameLength(journal, test::kLastFrame);

    req.id = 2;
    SweepReply second;
    ASSERT_TRUE(client.runSweep(req, &second).ok());
    EXPECT_EQ(renderSweepText(second.entries, second.report),
              renderSweepText(first.entries, first.report));
    InfoReply info;
    EXPECT_TRUE(client.info(&info).ok());
    client.goodbye();
    server.stop();
    std::filesystem::remove_all(cache_dir);
}

TEST(ServiceEndToEnd, ResilientClientAbsorbsShedAndHonorsHint)
{
    ServerOptions options;
    options.unix_path = scratchSocket("resilient_shed");
    options.queue_depth = 1;
    options.executors = 1;
    options.admission_hold_ms = 600.0;
    options.retry_after_ms = 222.0;
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client c1, c2;
    ASSERT_TRUE(c1.connect(options.unix_path).ok());
    ASSERT_TRUE(c2.connect(options.unix_path).ok());
    std::thread t1([&c1] {
        SweepRequest req = expiredSweepRequest();
        req.cell_retries = 1;
        SweepReply reply;
        EXPECT_TRUE(c1.runSweep(req, &reply).ok());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::thread t2([&c2] {
        SweepRequest req = expiredSweepRequest();
        req.cell_retries = 2;
        SweepReply reply;
        EXPECT_TRUE(c2.runSweep(req, &reply).ok());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // The resilient path lands the sweep despite being shed: it
    // sleeps at least the daemon's hint between attempts (the
    // daemon shapes its own readmission traffic) and resubmits
    // until the queue drains.
    SweepRequest req = expiredSweepRequest();
    req.cell_retries = 3;
    RetryPolicy policy;
    policy.max_attempts = 10;
    policy.base_ms = 1.0;
    policy.max_ms = 10.0;
    policy.jitter_seed = 42;
    std::vector<double> delays;
    policy.sleep_fn = [&delays](double ms) {
        delays.push_back(ms);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
    };
    SweepReply reply;
    RetryStats stats;
    const Status s = runSweepResilient(options.unix_path, 0, req,
                                       policy, &reply, nullptr,
                                       &stats);
    ASSERT_TRUE(s.ok()) << s.toString();
    EXPECT_GE(stats.attempts, 2);
    EXPECT_GE(stats.rejects, 1);
    ASSERT_FALSE(delays.empty());
    for (const double d : delays)
        EXPECT_GE(d, 222.0); // Every backoff honors the hint.
    EXPECT_TRUE(reply.deadline_bounded);

    t1.join();
    t2.join();
    c1.goodbye();
    c2.goodbye();
    server.stop();
}

TEST(ServiceEndToEnd, ResilientClientFailsFastOnPermanentReject)
{
    ServerOptions options;
    options.unix_path = scratchSocket("resilient_perm");
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    // A request that can never succeed: retrying it would fail
    // identically forever, so the resilient path must not burn its
    // attempt budget on it.
    SweepRequest req = expiredSweepRequest();
    req.level = "bogus";
    RetryPolicy policy;
    policy.max_attempts = 5;
    int sleeps = 0;
    policy.sleep_fn = [&sleeps](double) { ++sleeps; };
    SweepReply reply;
    RetryStats stats;
    const Status s = runSweepResilient(options.unix_path, 0, req,
                                       policy, &reply, nullptr,
                                       &stats);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(stats.attempts, 1);
    EXPECT_EQ(stats.rejects, 1);
    EXPECT_EQ(sleeps, 0);
    server.stop();
}

TEST(ServiceEndToEnd, ResilientClientSurvivesLateStartingDaemon)
{
    ServerOptions options;
    options.unix_path = scratchSocket("resilient_late");

    // The client starts first — the daemon is "restarting".  Every
    // refused connect is a transient failure worth a retry; once the
    // daemon comes up, the sweep lands.
    SweepReply reply;
    RetryStats stats;
    Status result;
    std::thread client([&options, &reply, &stats, &result] {
        RetryPolicy policy;
        policy.max_attempts = 20;
        policy.base_ms = 100.0;
        policy.max_ms = 400.0;
        policy.jitter_seed = 7; // Real sleeps, deterministic jitter.
        result = runSweepResilient(options.unix_path, 0,
                                   expiredSweepRequest(), policy,
                                   &reply, nullptr, &stats);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    Server server(options);
    ASSERT_TRUE(server.start().ok());
    client.join();
    ASSERT_TRUE(result.ok()) << result.toString();
    EXPECT_GE(stats.attempts, 2);
    EXPECT_GE(stats.disconnects, 1);
    EXPECT_TRUE(reply.deadline_bounded);
    server.stop();
}

TEST(ServiceEndToEnd, ResilientClientExhaustsRetriesWithHonestStatus)
{
    // No daemon will ever appear: the resilient path must exhaust
    // its budget and return the last transient Status with the
    // attempt count in the message — never hang, never throw.
    RetryPolicy policy;
    policy.max_attempts = 3;
    policy.sleep_fn = [](double) {}; // No real sleeping.
    SweepReply reply;
    RetryStats stats;
    const Status s = runSweepResilient(
        scratchSocket("resilient_nobody"), 0, expiredSweepRequest(),
        policy, &reply, nullptr, &stats);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
    EXPECT_EQ(stats.attempts, 3);
    EXPECT_EQ(stats.disconnects, 3);
    EXPECT_NE(s.toString().find("after 3 attempts"),
              std::string::npos);
}

// ---------------------------------------------------------------
// Request-scoped observability
// ---------------------------------------------------------------

TEST(ServiceProtocol, MintTraceIdIsNonZeroAndDistinct)
{
    const std::uint64_t a = mintTraceId();
    const std::uint64_t b = mintTraceId();
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
}

TEST(ServiceProtocol, SweepRequestTraceIdRoundTrips)
{
    SweepRequest req = expiredSweepRequest();
    req.trace_id = 0xdeadbeefcafef00dull;
    SweepRequest back;
    ASSERT_TRUE(decodeSweepRequest(encodeSweepRequest(req), &back));
    EXPECT_EQ(back.trace_id, 0xdeadbeefcafef00dull);
}

TEST(ServiceProtocol, ProgressFrameTraceIdRoundTrips)
{
    SweepProgressFrame p;
    p.id = 11;
    p.done = 3;
    p.total = 27;
    p.app = "camera";
    p.variant = "pe_base";
    p.trace_id = 12345;
    SweepProgressFrame back;
    ASSERT_TRUE(decodeProgress(encodeProgress(p), &back));
    EXPECT_EQ(back.trace_id, 12345u);
    EXPECT_EQ(back.variant, "pe_base");
}

TEST(ServiceProtocol, TraceConversationRoundTrips)
{
    TraceRequest req;
    req.trace_id = 0x1234;
    TraceRequest rback;
    ASSERT_TRUE(
        decodeTraceRequest(encodeTraceRequest(req), &rback));
    EXPECT_EQ(rback.trace_id, 0x1234u);

    TraceReply reply;
    reply.trace_id = 0x1234;
    reply.dropped = 2;
    reply.evicted = 5;
    telemetry::SpanEvent ev;
    ev.name = "service.execute";
    ev.scope = "camera";
    ev.args = "\"app\":\"camera\"";
    ev.ts_us = 12.5;
    ev.dur_us = 3.25;
    ev.lane = 1;
    ev.thread_ord = 4;
    ev.depth = 2;
    ev.trace_id = 0x1234;
    reply.events.push_back(ev);
    ev.name = "sweep";
    ev.lane = -1;
    reply.events.push_back(ev);

    TraceReply back;
    ASSERT_TRUE(decodeTraceReply(encodeTraceReply(reply), &back));
    EXPECT_EQ(back.trace_id, 0x1234u);
    EXPECT_EQ(back.dropped, 2);
    EXPECT_EQ(back.evicted, 5);
    ASSERT_EQ(back.events.size(), 2u);
    EXPECT_EQ(back.events[0].name, "service.execute");
    EXPECT_EQ(back.events[0].scope, "camera");
    EXPECT_EQ(back.events[0].args, "\"app\":\"camera\"");
    EXPECT_DOUBLE_EQ(back.events[0].ts_us, 12.5);
    EXPECT_DOUBLE_EQ(back.events[0].dur_us, 3.25);
    EXPECT_EQ(back.events[0].lane, 1);
    EXPECT_EQ(back.events[0].thread_ord, 4);
    EXPECT_EQ(back.events[0].depth, 2);
    EXPECT_EQ(back.events[0].trace_id, 0x1234u);
    EXPECT_EQ(back.events[1].lane, -1);
}

TEST(ServiceProtocol, StatuszConversationRoundTripsAndRenders)
{
    StatuszRequest req;
    req.max_samples = 7;
    StatuszRequest rback;
    ASSERT_TRUE(
        decodeStatuszRequest(encodeStatuszRequest(req), &rback));
    EXPECT_EQ(rback.max_samples, 7);

    StatuszReply reply;
    reply.interval_ms = 250.0;
    StatusSnapshot snap;
    snap.ts_ms = 1000.5;
    snap["sessions"] = 3;
    snap["queue_depth"] = 2;
    snap["active_sweeps"] = 1;
    snap["inflight_bytes"] = 4096;
    snap["accepted"] = 10;
    snap["rejected"] = 1;
    snap["coalesced"] = 4;
    snap["sweeps"] = 6;
    snap["cache_hits"] = 100;
    snap["cache_misses"] = 20;
    snap["worker_restarts"] = 2;
    snap["trace_dropped"] = 9;
    snap["request_p50_ms"] = 5.0;
    snap["request_p99_ms"] = 50.0;
    reply.samples.push_back(snap);
    snap["accepted"] = 12;
    reply.samples.push_back(snap);

    StatuszReply back;
    ASSERT_TRUE(
        decodeStatuszReply(encodeStatuszReply(reply), &back));
    EXPECT_DOUBLE_EQ(back.interval_ms, 250.0);
    ASSERT_EQ(back.samples.size(), 2u);
    EXPECT_DOUBLE_EQ(back.samples[0].ts_ms, 1000.5);
    EXPECT_EQ(back.samples[0]["sessions"], 3);
    EXPECT_EQ(back.samples[0]["queue_depth"], 2);
    EXPECT_EQ(back.samples[0]["active_sweeps"], 1);
    EXPECT_EQ(back.samples[0]["inflight_bytes"], 4096);
    EXPECT_EQ(back.samples[0]["accepted"], 10);
    EXPECT_EQ(back.samples[0]["rejected"], 1);
    EXPECT_EQ(back.samples[0]["coalesced"], 4);
    EXPECT_EQ(back.samples[0]["sweeps"], 6);
    EXPECT_EQ(back.samples[0]["cache_hits"], 100);
    EXPECT_EQ(back.samples[0]["cache_misses"], 20);
    EXPECT_EQ(back.samples[0]["worker_restarts"], 2);
    EXPECT_EQ(back.samples[0]["trace_dropped"], 9);
    EXPECT_DOUBLE_EQ(back.samples[0]["request_p50_ms"], 5.0);
    EXPECT_DOUBLE_EQ(back.samples[0]["request_p99_ms"], 50.0);
    EXPECT_EQ(back.samples[1]["accepted"], 12);
    EXPECT_THROW((void)snap["no_such_vital"], std::out_of_range);

    const std::string json = statuszJson(back);
    EXPECT_EQ(json.find("{\"apex_statusz\":1"), 0u);
    EXPECT_NE(json.find("\"accepted\":"), std::string::npos);
    EXPECT_NE(json.find("\"request_p99_ms\":"), std::string::npos);

    const std::string text = renderStatuszText(back);
    EXPECT_NE(text.find("apexd statusz"), std::string::npos);
    EXPECT_NE(text.find("queue"), std::string::npos);

    StatuszReply empty;
    EXPECT_NE(renderStatuszText(empty).find("no samples"),
              std::string::npos);
}

TEST(ServiceProtocol, StatuszRenderingsArePinned)
{
    // Both renderings of one fixed two-sample reply, byte for byte
    // (`apexc client top --json` is schema-checked by CI, the text is
    // what operators read).  cache_hits sits above 2^31.
    StatuszReply reply;
    reply.interval_ms = 250.0;
    StatusSnapshot a;
    a.ts_ms = 1000.5;
    for (const auto &[key, value] :
         std::vector<std::pair<std::string, double>>{
             {"sessions", 3}, {"queue_depth", 2}, {"active_sweeps", 1},
             {"inflight_bytes", 4096}, {"accepted", 10},
             {"rejected", 1}, {"coalesced", 4}, {"sweeps", 6},
             {"cache_hits", 3000000000.0}, {"cache_misses", 20},
             {"worker_restarts", 2}, {"trace_dropped", 9},
             {"mined_patterns", 123}, {"mine_embeddings", 4567},
             {"mine_pruned", 89}, {"request_p50_ms", 5.0},
             {"request_p99_ms", 50.25}})
        a[key] = value;
    StatusSnapshot b = a;
    b.ts_ms = 1250.75;
    for (const auto &[key, value] :
         std::vector<std::pair<std::string, double>>{
             {"sessions", 4}, {"queue_depth", 0}, {"active_sweeps", 2},
             {"inflight_bytes", 8192}, {"accepted", 12},
             {"rejected", 2}, {"coalesced", 5}, {"sweeps", 8},
             {"cache_hits", 3000000100.0}, {"cache_misses", 25},
             {"request_p50_ms", 4.5}, {"request_p99_ms", 48.125}})
        b[key] = value;
    reply.samples = {a, b};
    StatuszReply back;
    ASSERT_TRUE(decodeStatuszReply(encodeStatuszReply(reply), &back));

    EXPECT_EQ(
        statuszJson(back),
        "{\"apex_statusz\":1,\"interval_ms\":250,\"samples\":["
        "{\"ts_ms\":1000.5,\"sessions\":3,\"queue_depth\":2,"
        "\"active_sweeps\":1,\"inflight_bytes\":4096,\"accepted\":10,"
        "\"rejected\":1,\"coalesced\":4,\"sweeps\":6,"
        "\"cache_hits\":3000000000,\"cache_misses\":20,"
        "\"worker_restarts\":2,\"trace_dropped\":9,"
        "\"mined_patterns\":123,\"mine_embeddings\":4567,"
        "\"mine_pruned\":89,\"request_p50_ms\":5,"
        "\"request_p99_ms\":50.25},"
        "{\"ts_ms\":1250.75,\"sessions\":4,\"queue_depth\":0,"
        "\"active_sweeps\":2,\"inflight_bytes\":8192,\"accepted\":12,"
        "\"rejected\":2,\"coalesced\":5,\"sweeps\":8,"
        "\"cache_hits\":3000000100,\"cache_misses\":25,"
        "\"worker_restarts\":2,\"trace_dropped\":9,"
        "\"mined_patterns\":123,\"mine_embeddings\":4567,"
        "\"mine_pruned\":89,\"request_p50_ms\":4.5,"
        "\"request_p99_ms\":48.125}]}");
    EXPECT_EQ(renderStatuszText(back),
              "apexd statusz  2 sample(s), interval 250 ms\n"
              "  sessions 4  queue 0  active 2  inflight_bytes 8192\n"
              "  cache hit rate 100.0% (3000000100/3000000125)  "
              "worker restarts 2  trace drops 9\n"
              "  mining: patterns 123  embeddings 4567  pruned 89\n"
              "  request p50/p99 4.5/48.1 ms\n"
              "  last interval: accepted +2  rejected +1  "
              "coalesced +1  sweeps +2\n"
              "  totals: accepted 12  rejected 2  coalesced 5  "
              "sweeps 8\n");
}

// ---------------------------------------------------------------
// Seeded mutation of every payload decoder
// ---------------------------------------------------------------
//
// Every decoder that reads bytes from disk or a socket must survive
// arbitrary damage.  The frame layer (FrameMutation.* in
// durability_test) checksums what it delivers; these are the
// decoders behind it: the apexir text format, evaluation results,
// journal cell records and every apexsvc payload.

/**
 * Decode seeded mutants of @p encoded (a flipped bit, a deleted or
 * duplicated byte, a truncation, a number overwritten with 1-20
 * digits; one to three each).  Nothing may throw, and an accepted
 * mutant must reach a fixed point: its re-encoding decodes again and
 * re-encodes to the same bytes.  @p inspect (may be null) runs on
 * every decoded value.  Returns how many mutants were accepted.
 */
template <class T>
int
mutantsReachAFixedPoint(
    const std::string &encoded,
    const std::function<bool(const std::string &, T *)> &decode,
    const std::function<std::string(const T &)> &encode,
    const std::function<void(const T &)> &inspect = nullptr)
{
    int accepted = 0;
    for (unsigned seed = 1; seed <= 3000; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937 rng(seed);
        std::string bytes = encoded;
        for (int n = 1 + static_cast<int>(rng() % 3); n > 0; --n)
            test::mutate(bytes, test::digitRuns(bytes), rng);
        T first{};
        bool ok = false;
        EXPECT_NO_THROW(ok = decode(bytes, &first));
        if (!ok)
            continue;
        ++accepted;
        EXPECT_NO_THROW({
            const std::string once = encode(first);
            T second{};
            EXPECT_TRUE(decode(once, &second)) << once;
            EXPECT_EQ(encode(second), once);
            if (inspect)
                inspect(second);
        });
    }
    return accepted;
}

/** Adapt a Result-returning parser to the decode shape. */
template <class T>
std::function<bool(const std::string &, T *)>
fromResult(Result<T> (*parse)(const std::string &))
{
    return [parse](const std::string &text, T *out) {
        Result<T> parsed = parse(text);
        if (parsed.ok())
            *out = std::move(parsed).value();
        return parsed.ok();
    };
}

/** An evaluation result with every section and a diagnostic trail. */
core::EvalResult
sampleEvalResult()
{
    core::EvalResult r;
    r.success = true;
    r.pnr_attempts = 3;
    r.degraded = true;
    r.pe_count = 42;
    r.pe_area = 1234.5;
    r.pe_energy = 6.789;
    r.fabric_width = 32;
    r.fabric_height = 16;
    r.cgra_area = 98765.25;
    r.cgra_energy = 12.5;
    r.pipeline_stages = 2;
    r.period_ns = 1.125;
    r.runtime_ms = 0.75;
    r.diagnostics.info("place", "seed 0xca11 failed; retrying", 1);
    r.diagnostics.warning("route", "escalated to 6 tracks", 2);
    return r;
}

TEST(PayloadMutation, EveryDecoderSurvivesAndReachesAFixedPoint)
{
    std::vector<std::pair<std::string, int>> accepted;
    const auto check = [&accepted](const std::string &name, int n) {
        accepted.emplace_back(name, n);
    };

    check("ir::parseGraph",
          mutantsReachAFixedPoint<ir::Graph>(
              ir::serialize(apps::gaussianBlur(2).graph),
              fromResult(&ir::parseGraph),
              [](const ir::Graph &g) { return ir::serialize(g); }));

    check("core::parseEvalResult",
          mutantsReachAFixedPoint<core::EvalResult>(
              core::serializeEvalResult(sampleEvalResult()),
              fromResult(&core::parseEvalResult),
              &core::serializeEvalResult));

    using CellRecord = core::SweepJournal::CellRecord;
    CellRecord cell;
    cell.app = 2;
    cell.cell = 1;
    cell.variant = "pe_spec";
    cell.result.status = Status(ErrorCode::kTimeout, "cell deadline");
    cell.result.diagnostics.error("map", cell.result.status, 1);
    check("SweepJournal::decodeCellRecordPayload",
          mutantsReachAFixedPoint<CellRecord>(
              core::SweepJournal::encodeCellRecordPayload(cell),
              &core::SweepJournal::decodeCellRecordPayload,
              &core::SweepJournal::encodeCellRecordPayload));

    HelloRequest hello;
    hello.protocol = kProtocolVersion;
    hello.client = "apexc";
    check("decodeHello", mutantsReachAFixedPoint<HelloRequest>(
                             encodeHello(hello), &decodeHello,
                             &encodeHello));

    InfoReply info;
    info.protocol = kProtocolVersion;
    info.version = "apex 0123abc (RelWithDebInfo) protocol v5";
    info.commit = "0123abc";
    info.flags = "RelWithDebInfo";
    check("decodeInfoReply",
          mutantsReachAFixedPoint<InfoReply>(
              encodeInfoReply(info), &decodeInfoReply, &encodeInfoReply));

    SweepRequest request;
    request.id = 17;
    request.priority = 3;
    request.level = "pnr";
    request.isolate = "process";
    request.cell_retries = 4;
    request.deadline_ms = 1234.5;
    request.cell_deadline_ms = 0.25;
    request.want_progress = true;
    request.trace_id = 0xfeedbeef;
    check("decodeSweepRequest",
          mutantsReachAFixedPoint<SweepRequest>(
              encodeSweepRequest(request), &decodeSweepRequest,
              &encodeSweepRequest));

    SweepAck ack;
    ack.id = 9;
    ack.coalesced = true;
    check("decodeAck", mutantsReachAFixedPoint<SweepAck>(
                           encodeAck(ack), &decodeAck, &encodeAck));

    SweepReject reject;
    reject.id = 10;
    reject.reason = "admission queue full";
    reject.retry_after_ms = 333.25;
    check("decodeReject",
          mutantsReachAFixedPoint<SweepReject>(
              encodeReject(reject), &decodeReject, &encodeReject));

    SweepProgressFrame progress;
    progress.id = 11;
    progress.done = 3;
    progress.total = 27;
    progress.app = "camera";
    progress.variant = "pe_base";
    progress.trace_id = 0x1234;
    check("decodeProgress",
          mutantsReachAFixedPoint<SweepProgressFrame>(
              encodeProgress(progress), &decodeProgress,
              &encodeProgress));

    SweepReply report;
    report.id = 77;
    report.deadline_bounded = true;
    core::SweepEntry entry;
    entry.app = "harris";
    entry.variant = "pe_base";
    entry.result = sampleEvalResult();
    report.entries.push_back(entry);
    report.report.evaluated = 1;
    report.report.skipped = 1;
    StageFailure failure;
    failure.app = "stereo";
    failure.variant = "pe_spec";
    failure.stage = "mapping";
    failure.status = Status(ErrorCode::kTimeout, "deadline expired");
    failure.attempts = 2;
    report.report.failures.push_back(failure);
    report.report.diagnostics.warning("sweep", "1 cell degraded", 0);
    check("decodeSweepReply",
          mutantsReachAFixedPoint<SweepReply>(
              encodeSweepReply(report), &decodeSweepReply,
              &encodeSweepReply, [](const SweepReply &r) {
                  (void)renderSweepText(r.entries, r.report);
                  (void)sweepExitCode(r);
              }));

    TraceReply trace;
    trace.trace_id = 0x1234;
    trace.dropped = 2;
    trace.evicted = 5;
    telemetry::SpanEvent ev;
    ev.name = "service.execute";
    ev.scope = "camera";
    ev.args = "\"app\":\"camera\"";
    ev.ts_us = 12.5;
    ev.dur_us = 3.25;
    ev.lane = 1;
    ev.thread_ord = 4;
    ev.depth = 2;
    ev.trace_id = 0x1234;
    trace.events = {ev, ev};
    check("decodeTraceReply",
          mutantsReachAFixedPoint<TraceReply>(
              encodeTraceReply(trace), &decodeTraceReply,
              &encodeTraceReply));

    StatuszReply statusz;
    statusz.interval_ms = 250.0;
    StatusSnapshot snap;
    snap.ts_ms = 1000.5;
    for (std::size_t i = 0; i < snap.values.size(); ++i)
        snap.values[i] = static_cast<double>(i * 7 + 1);
    snap["cache_hits"] = 3000000000.0;
    snap["request_p99_ms"] = 48.125;
    statusz.samples = {snap, snap};
    check("decodeStatuszReply",
          mutantsReachAFixedPoint<StatuszReply>(
              encodeStatuszReply(statusz), &decodeStatuszReply,
              &encodeStatuszReply, [](const StatuszReply &r) {
                  (void)statuszJson(r);
                  (void)renderStatuszText(r);
              }));

    // Every decoder accepted some mutants, so the fixed-point half of
    // the check ran for each of them.
    for (const auto &[name, n] : accepted)
        EXPECT_GT(n, 0) << name;
}

TEST(ServiceEndToEnd, TraceSliceCarriesTheRequestsSpans)
{
    telemetry::resetTracingForTesting();
    telemetry::setTracingEnabled(true);

    ServerOptions options;
    options.unix_path = scratchSocket("trace");
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client client;
    ASSERT_TRUE(client.connect(options.unix_path).ok());
    SweepRequest req = expiredSweepRequest();
    req.trace_id = mintTraceId();
    SweepReply reply;
    ASSERT_TRUE(client.runSweep(req, &reply).ok());

    TraceReply slice;
    ASSERT_TRUE(client.trace(req.trace_id, &slice).ok());
    EXPECT_EQ(slice.trace_id, req.trace_id);
    ASSERT_FALSE(slice.events.empty());
    bool saw_admit = false;
    bool saw_execute = false;
    bool saw_sweep = false;
    for (const telemetry::SpanEvent &ev : slice.events) {
        EXPECT_EQ(ev.trace_id, req.trace_id) << ev.name;
        saw_admit |= ev.name == "service.admit";
        saw_execute |= ev.name == "service.execute";
        saw_sweep |= ev.name == "sweep";
    }
    EXPECT_TRUE(saw_admit);
    EXPECT_TRUE(saw_execute);
    EXPECT_TRUE(saw_sweep);

    // A trace id nobody used yields an empty (but well-formed) slice.
    TraceReply none;
    ASSERT_TRUE(client.trace(0x1, &none).ok());
    EXPECT_TRUE(none.events.empty());

    client.goodbye();
    server.stop();
    telemetry::setTracingEnabled(false);
    telemetry::resetTracingForTesting();
}

TEST(ServiceEndToEnd, CoalescedJoinersFetchTheirOwnTraceSlices)
{
    telemetry::resetTracingForTesting();
    telemetry::setTracingEnabled(true);
    telemetry::Counter &coalesced =
        telemetry::counter("apex.service.coalesced");
    const long long coalesced0 = coalesced.value();

    ServerOptions options;
    options.unix_path = scratchSocket("trace_coalesce");
    options.admission_hold_ms = 400.0;
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    constexpr int kClients = 3;
    std::vector<std::uint64_t> ids(kClients, 0);
    // One byte per client flag, as in
    // ConcurrentIdenticalSweepsCoalesce.
    std::vector<char> slice_ok(kClients, false);
    std::vector<char> ids_match(kClients, false);
    std::vector<char> nonempty(kClients, false);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i)
        threads.emplace_back([&, i] {
            Client client;
            if (!client.connect(options.unix_path).ok())
                return;
            SweepRequest req = expiredSweepRequest();
            req.trace_id = mintTraceId();
            ids[i] = req.trace_id;
            SweepReply reply;
            if (!client.runSweep(req, &reply).ok())
                return;
            TraceReply slice;
            if (!client.trace(req.trace_id, &slice).ok())
                return;
            slice_ok[i] = true;
            nonempty[i] = !slice.events.empty();
            bool all = slice.trace_id == req.trace_id;
            for (const telemetry::SpanEvent &ev : slice.events)
                all = all && ev.trace_id == req.trace_id;
            ids_match[i] = all;
            client.goodbye();
        });
    for (std::thread &t : threads)
        t.join();
    server.stop();

    // At least one request coalesced, and *every* requester — the
    // primary and each joiner — got a slice under its own trace id.
    EXPECT_GT(coalesced.value() - coalesced0, 0);
    for (int i = 0; i < kClients; ++i) {
        EXPECT_TRUE(slice_ok[i]) << "client " << i;
        EXPECT_TRUE(nonempty[i]) << "client " << i;
        EXPECT_TRUE(ids_match[i]) << "client " << i;
    }
    telemetry::setTracingEnabled(false);
    telemetry::resetTracingForTesting();
}

TEST(ServiceEndToEnd, StatuszRingSamplesDaemonVitals)
{
    ServerOptions options;
    options.unix_path = scratchSocket("statusz");
    options.statusz_interval_ms = 20.0;
    options.statusz_capacity = 4;
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client client;
    ASSERT_TRUE(client.connect(options.unix_path).ok());
    SweepReply reply;
    ASSERT_TRUE(client.runSweep(expiredSweepRequest(), &reply).ok());

    // Let a few sampling ticks land, then read the ring.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    StatuszReply statusz;
    ASSERT_TRUE(client.statusz(0, &statusz).ok());
    EXPECT_DOUBLE_EQ(statusz.interval_ms, 20.0);
    ASSERT_GE(statusz.samples.size(), 2u);
    // The ring is bounded by statusz_capacity, not by uptime.
    EXPECT_LE(statusz.samples.size(), 4u);
    const StatusSnapshot &last = statusz.samples.back();
    EXPECT_GE(last["accepted"], 1);
    EXPECT_GE(last["sweeps"], 1);
    EXPECT_GE(last["sessions"], 1);
    // Timestamps are monotone across the ring.
    for (std::size_t i = 1; i < statusz.samples.size(); ++i)
        EXPECT_GE(statusz.samples[i].ts_ms,
                  statusz.samples[i - 1].ts_ms);

    // max_samples trims from the oldest end.
    StatuszReply trimmed;
    ASSERT_TRUE(client.statusz(1, &trimmed).ok());
    ASSERT_EQ(trimmed.samples.size(), 1u);
    EXPECT_GE(trimmed.samples[0].ts_ms, statusz.samples[0].ts_ms);

    client.goodbye();
    server.stop();
}

} // namespace
} // namespace apex::service

#include "service/client.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>

#include "runtime/telemetry.hpp"
#include "service/version.hpp"

namespace apex::service {

namespace {

Status
unavailable(const std::string &what)
{
    return Status(ErrorCode::kUnavailable,
                  what + ": " + std::strerror(errno));
}

} // namespace

Client::~Client()
{
    if (fd_ >= 0)
        ::close(fd_);
}

Status
Client::connect(const std::string &unix_path)
{
    std::signal(SIGPIPE, SIG_IGN);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (unix_path.size() >= sizeof addr.sun_path)
        return Status(ErrorCode::kInvalidArgument,
                      "socket path too long: " + unix_path);
    std::strncpy(addr.sun_path, unix_path.c_str(),
                 sizeof addr.sun_path - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0)
        return unavailable("socket");
    if (::connect(fd_, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof addr) != 0) {
        const Status s = unavailable("connect " + unix_path);
        ::close(fd_);
        fd_ = -1;
        return s;
    }
    return handshake();
}

Status
Client::connectTcp(int port)
{
    std::signal(SIGPIPE, SIG_IGN);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        return unavailable("socket");
    if (::connect(fd_, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof addr) != 0) {
        const Status s = unavailable(
            "connect 127.0.0.1:" + std::to_string(port));
        ::close(fd_);
        fd_ = -1;
        return s;
    }
    return handshake();
}

Status
Client::handshake()
{
    HelloRequest hello;
    hello.protocol = kProtocolVersion;
    hello.client = "apexc";
    Status s = sendFrame(kFrameHello, encodeHello(hello));
    if (!s.ok())
        return s;
    runtime::FramedRecord rec;
    s = readFrame(&rec);
    if (!s.ok())
        return s;
    if (rec.type == kFrameHelloErr)
        return Status(ErrorCode::kUnavailable, rec.payload);
    HelloReply reply;
    if (rec.type != kFrameHelloOk ||
        !decodeHelloReply(rec.payload, &reply))
        return Status(ErrorCode::kInternal,
                      "unexpected handshake reply '" + rec.type + "'");
    server_version_ = reply.server_version;
    return Status::okStatus();
}

Status
Client::info(InfoReply *out)
{
    Status s = sendFrame(kFrameInfo, "");
    if (!s.ok())
        return s;
    runtime::FramedRecord rec;
    s = readFrame(&rec);
    if (!s.ok())
        return s;
    if (rec.type != kFrameInfoOk || !decodeInfoReply(rec.payload, out))
        return Status(ErrorCode::kInternal,
                      "unexpected info reply '" + rec.type + "'");
    return Status::okStatus();
}

Status
Client::metrics(std::string *out)
{
    Status s = sendFrame(kFrameMetrics, "");
    if (!s.ok())
        return s;
    runtime::FramedRecord rec;
    s = readFrame(&rec);
    if (!s.ok())
        return s;
    if (rec.type != kFrameMetricsOk)
        return Status(ErrorCode::kInternal,
                      "unexpected metrics reply '" + rec.type + "'");
    *out = std::move(rec.payload);
    return Status::okStatus();
}

Status
Client::trace(std::uint64_t trace_id, TraceReply *out)
{
    TraceRequest req;
    req.trace_id = trace_id;
    Status s = sendFrame(kFrameTrace, encodeTraceRequest(req));
    if (!s.ok())
        return s;
    runtime::FramedRecord rec;
    s = readFrame(&rec);
    if (!s.ok())
        return s;
    if (rec.type != kFrameTraceOk ||
        !decodeTraceReply(rec.payload, out))
        return Status(ErrorCode::kInternal,
                      "unexpected trace reply '" + rec.type + "'");
    return Status::okStatus();
}

Status
Client::statusz(int max_samples, StatuszReply *out)
{
    StatuszRequest req;
    req.max_samples = max_samples;
    Status s = sendFrame(kFrameStatusz, encodeStatuszRequest(req));
    if (!s.ok())
        return s;
    runtime::FramedRecord rec;
    s = readFrame(&rec);
    if (!s.ok())
        return s;
    if (rec.type != kFrameStatuszOk ||
        !decodeStatuszReply(rec.payload, out))
        return Status(ErrorCode::kInternal,
                      "unexpected statusz reply '" + rec.type + "'");
    return Status::okStatus();
}

Status
Client::runSweep(
    const SweepRequest &request, SweepReply *reply,
    const std::function<void(const SweepProgressFrame &)> &on_progress,
    SweepAck *ack_out, SweepReject *reject_out)
{
    Status s = sendFrame(kFrameSweep, encodeSweepRequest(request));
    if (!s.ok())
        return s;
    // Streamed response: ack | reject first, then any number of
    // progress frames, then the report.  Frames for other request ids
    // cannot appear — the protocol is client-driven, one request at a
    // time per connection.
    bool acked = false;
    for (;;) {
        runtime::FramedRecord rec;
        s = readFrame(&rec);
        if (!s.ok())
            return s;
        if (!acked) {
            if (rec.type == kFrameReject) {
                SweepReject rej;
                if (!decodeReject(rec.payload, &rej))
                    return Status(ErrorCode::kInternal,
                                  "malformed reject frame");
                if (reject_out != nullptr)
                    *reject_out = rej;
                return Status(rej.code, rej.reason);
            }
            SweepAck ack;
            if (rec.type != kFrameAck ||
                !decodeAck(rec.payload, &ack))
                return Status(ErrorCode::kInternal,
                              "expected ack, got '" + rec.type + "'");
            if (ack_out != nullptr)
                *ack_out = ack;
            acked = true;
            continue;
        }
        if (rec.type == kFrameProgress) {
            SweepProgressFrame p;
            if (decodeProgress(rec.payload, &p) && on_progress)
                on_progress(p);
            continue;
        }
        if (rec.type == kFrameReport) {
            if (!decodeSweepReply(rec.payload, reply))
                return Status(ErrorCode::kInternal,
                              "malformed report frame");
            return Status::okStatus();
        }
        return Status(ErrorCode::kInternal,
                      "unexpected frame '" + rec.type +
                          "' mid-sweep");
    }
}

void
Client::goodbye()
{
    if (fd_ < 0)
        return;
    if (sendFrame(kFrameBye, "").ok()) {
        runtime::FramedRecord rec;
        (void)readFrame(&rec); // bye.ok (best effort).
    }
    ::close(fd_);
    fd_ = -1;
}

Status
Client::readFrame(runtime::FramedRecord *out)
{
    for (;;) {
        const runtime::DecodeResult r = decoder_.next(out);
        if (r == runtime::DecodeResult::kFrame)
            return Status::okStatus();
        if (r == runtime::DecodeResult::kCorrupt)
            return Status(ErrorCode::kInternal,
                          "service stream corrupt: " +
                              decoder_.corruptReason());
        // kNeedMore: block for bytes.  The fd is blocking, so the
        // drain must stop after one read — whatever arrived may
        // already complete the frame, and a second read() on a quiet
        // daemon would block forever.  kOpen means *something* was
        // delivered: loop and decode.
        const runtime::DrainResult d = runtime::drainFd(
            fd_, decoder_, runtime::DrainMode::kSingleRead);
        if (d == runtime::DrainResult::kEof)
            return Status(ErrorCode::kUnavailable,
                          "daemon closed the connection");
        if (d == runtime::DrainResult::kError)
            return unavailable("read");
    }
}

Status
Client::sendFrame(std::string_view type, std::string_view payload)
{
    if (fd_ < 0)
        return Status(ErrorCode::kUnavailable, "not connected");
    Status s = runtime::writeFrame(fd_, kServiceMagic,
                                   kServiceWireVersion, type, payload);
    if (!s.ok())
        return Status(ErrorCode::kUnavailable,
                      "daemon write failed: " + s.message());
    return Status::okStatus();
}

namespace {

/** Backoff before retry @p attempt: base * 2^(attempt-1) capped at
 * max_ms, scaled by a deterministic jitter in [0.5, 1.0) so a fleet
 * of shed clients doesn't resubmit in lockstep, then stretched to at
 * least the daemon's retry_after hint. */
double
backoffDelayMs(const RetryPolicy &policy, int attempt,
               double hint_ms)
{
    double delay = policy.base_ms > 0 ? policy.base_ms : 1.0;
    for (int i = 1; i < attempt && delay < policy.max_ms; ++i)
        delay *= 2.0;
    delay = std::min(delay, policy.max_ms);
    const std::uint64_t seed =
        policy.jitter_seed != 0
            ? policy.jitter_seed
            : static_cast<std::uint64_t>(::getpid());
    char key[48];
    std::snprintf(key, sizeof key, "%llu:%d",
                  static_cast<unsigned long long>(seed), attempt);
    const double frac =
        0.5 + static_cast<double>(runtime::fnv1a64(key) % 1000) /
                  2000.0;
    return std::max(delay * frac, hint_ms);
}

/** Only daemon-absent / shedding failures are worth a retry; a
 * kInvalidArgument or protocol violation will fail identically
 * forever. */
bool
transientCode(ErrorCode code)
{
    return code == ErrorCode::kUnavailable;
}

} // namespace

Status
runSweepResilient(
    const std::string &unix_path, int tcp_port,
    const SweepRequest &request, const RetryPolicy &policy,
    SweepReply *reply,
    const std::function<void(const SweepProgressFrame &)> &on_progress,
    RetryStats *stats)
{
    RetryStats local;
    RetryStats &st = stats != nullptr ? *stats : local;
    st = RetryStats{};
    const int max_attempts = std::max(policy.max_attempts, 1);

    Status last;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        ++st.attempts;
        double hint_ms = 0.0;
        // A fresh Client per attempt: the decoder and the handshake
        // state must never straddle two connections.
        Client client;
        last = unix_path.empty() ? client.connectTcp(tcp_port)
                                 : client.connect(unix_path);
        if (last.ok()) {
            SweepAck ack;
            SweepReject rej;
            last = client.runSweep(request, reply, on_progress, &ack,
                                   &rej);
            if (last.ok()) {
                st.coalesced = ack.coalesced;
                client.goodbye();
                return last;
            }
            if (rej.reason.empty()) {
                ++st.disconnects; // Connection died mid-sweep.
            } else {
                ++st.rejects; // Explicit shedding frame.
                hint_ms = rej.retry_after_ms;
            }
        } else {
            ++st.disconnects; // Never connected.
        }
        if (!transientCode(last.code()) || attempt == max_attempts)
            break;
        const double delay =
            backoffDelayMs(policy, attempt, hint_ms);
        st.slept_ms += delay;
        telemetry::counter("apex.client.retries").add(1);
        if (policy.sleep_fn) {
            policy.sleep_fn(delay);
        } else {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(delay));
        }
    }
    if (st.attempts > 1)
        last = last.withContext("after " +
                                std::to_string(st.attempts) +
                                " attempts");
    return last;
}

} // namespace apex::service

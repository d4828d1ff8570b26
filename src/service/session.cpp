#include "service/session.hpp"

#include <unistd.h>

#include "service/version.hpp"

namespace apex::service {

namespace {

// Session::send runs on the single io thread, so a peer that accepts
// no bytes at all for this long must cost its session, not the
// daemon: past the bound the write fails and the server drops the
// connection.  A slow-but-reading peer resets the window with every
// byte accepted and is unaffected.
constexpr int kSendStallTimeoutMs = 5000;

} // namespace

Session::Session(int fd, std::uint64_t id)
    : fd_(fd), id_(id),
      decoder_(kServiceMagic, kServiceWireVersion)
{
}

Session::~Session()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
Session::onReadable(std::vector<runtime::FramedRecord> *out)
{
    const runtime::DrainResult drained =
        runtime::drainFd(fd_, decoder_);
    if (drained == runtime::DrainResult::kError)
        return false;
    if (!dispatchDecoded(out))
        return false;
    // EOF after processing what remained: a peer that sent its last
    // frame and closed still gets that frame handled.
    return drained != runtime::DrainResult::kEof;
}

bool
Session::dispatchDecoded(std::vector<runtime::FramedRecord> *out)
{
    runtime::FramedRecord rec;
    for (;;) {
        const runtime::DecodeResult r = decoder_.next(&rec);
        if (r == runtime::DecodeResult::kNeedMore)
            return true;
        if (r == runtime::DecodeResult::kCorrupt)
            return false; // No resync on a byte stream: drop.
        if (!ready_) {
            // Handshake: the first frame must be a hello speaking
            // exactly this build's version; any other is refused
            // naming both sides.
            HelloRequest hello;
            if (rec.type != kFrameHello ||
                !decodeHello(rec.payload, &hello))
                return false;
            if (hello.protocol != kProtocolVersion) {
                (void)send(kFrameHelloErr,
                           "protocol mismatch: client speaks v" +
                               std::to_string(hello.protocol) +
                               ", server speaks v" +
                               std::to_string(kProtocolVersion) +
                               " (" + versionString() + ")");
                return false;
            }
            HelloReply reply;
            reply.protocol = kProtocolVersion;
            reply.server_version = versionString();
            if (!send(kFrameHelloOk, encodeHelloReply(reply)))
                return false;
            ready_ = true;
            continue;
        }
        out->push_back(std::move(rec));
    }
}

bool
Session::send(std::string_view type, std::string_view payload)
{
    return runtime::writeFrame(fd_, kServiceMagic,
                               kServiceWireVersion, type, payload,
                               kSendStallTimeoutMs)
        .ok();
}

} // namespace apex::service

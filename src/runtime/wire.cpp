#include "runtime/wire.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include <poll.h>
#include <unistd.h>

namespace apex::runtime {

namespace {

// Frame headers are one short ASCII line; a "header" that runs past
// this bound is garbage, not a slow pipe.
constexpr std::size_t kMaxHeaderBytes = 256;

} // namespace

std::uint64_t
fnv1a64(std::string_view data, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
encodeFrame(std::string_view magic, int version, std::string_view type,
            std::string_view payload)
{
    std::ostringstream os;
    os << magic << ' ' << version << ' ' << type << " sum "
       << hex64(fnv1a64(payload)) << " len " << payload.size() << '\n';
    os.write(payload.data(),
             static_cast<std::streamsize>(payload.size()));
    os << '\n';
    return os.str();
}

void
FrameDecoder::feed(const char *data, std::size_t n)
{
    if (corrupt_)
        return;
    buffer_.append(data, n);
}

DecodeResult
FrameDecoder::poison(std::string reason)
{
    corrupt_ = true;
    reason_ = std::move(reason);
    return DecodeResult::kCorrupt;
}

DecodeResult
FrameDecoder::next(FramedRecord *out)
{
    if (corrupt_)
        return DecodeResult::kCorrupt;

    // Reclaim the consumed prefix once it dominates the buffer.
    if (pos_ > 0 && pos_ >= buffer_.size() / 2) {
        buffer_.erase(0, pos_);
        pos_ = 0;
    }

    const std::size_t header_end = buffer_.find('\n', pos_);
    if (header_end == std::string::npos) {
        if (buffer_.size() - pos_ > kMaxHeaderBytes)
            return poison("frame header exceeds " +
                          std::to_string(kMaxHeaderBytes) + " bytes");
        return DecodeResult::kNeedMore;
    }
    if (header_end - pos_ > kMaxHeaderBytes)
        return poison("frame header exceeds " +
                      std::to_string(kMaxHeaderBytes) + " bytes");

    std::istringstream header(
        buffer_.substr(pos_, header_end - pos_));
    std::string magic, type, field;
    int version = 0;
    std::uint64_t checksum = 0;
    std::size_t payload_len = 0;
    if (!(header >> magic >> version) || magic != magic_)
        return poison("malformed frame header");
    if (version != version_) {
        // Checked before the rest of the header: a schema skew is
        // named as such whatever the newer layout looks like.
        version_mismatch_ = true;
        return poison("frame version mismatch: stream speaks v" +
                      std::to_string(version) + ", decoder v" +
                      std::to_string(version_));
    }
    if (!(header >> type >> field) || field != "sum" ||
        !(header >> std::hex >> checksum >> std::dec) ||
        !(header >> field >> payload_len) || field != "len")
        return poison("malformed frame header");
    if (payload_len > max_payload_)
        return poison("frame payload of " +
                      std::to_string(payload_len) +
                      " bytes exceeds the " +
                      std::to_string(max_payload_) + "-byte limit");

    const std::size_t body_start = header_end + 1;
    // Payload plus its trailing newline.
    if (buffer_.size() - body_start < payload_len + 1)
        return DecodeResult::kNeedMore;
    if (buffer_[body_start + payload_len] != '\n')
        return poison("frame payload missing terminator");
    std::string payload = buffer_.substr(body_start, payload_len);
    if (fnv1a64(payload) != checksum)
        return poison("frame payload checksum mismatch");
    out->type = std::move(type);
    out->payload = std::move(payload);
    pos_ = body_start + payload_len + 1;
    return DecodeResult::kFrame;
}

DrainResult
drainFd(int fd, FrameDecoder &decoder, DrainMode mode)
{
    char buf[16384];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return DrainResult::kOpen;
            return DrainResult::kError;
        }
        if (n == 0)
            return DrainResult::kEof;
        decoder.feed(buf, static_cast<std::size_t>(n));
        if (mode == DrainMode::kSingleRead)
            return DrainResult::kOpen;
        // A short read means the stream is (momentarily) drained; on
        // a blocking fd looping again would wait for bytes that may
        // never come.
        if (static_cast<std::size_t>(n) < sizeof buf)
            return DrainResult::kOpen;
    }
}

bool
decodeFile(int fd, FrameDecoder &decoder, std::vector<FramedRecord> *out)
{
    // One read per decode pass keeps the buffer at one frame plus a
    // read's worth of bytes, however long the file.
    FramedRecord record;
    DrainResult drained;
    do {
        drained = drainFd(fd, decoder, DrainMode::kSingleRead);
        while (decoder.next(&record) == DecodeResult::kFrame)
            out->push_back(std::move(record));
    } while (drained == DrainResult::kOpen && !decoder.corrupt());
    return drained == DrainResult::kEof && !decoder.corrupt() &&
           decoder.buffered() == 0;
}

Status
writeAll(int fd, std::string_view bytes, int stall_timeout_ms)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                // Non-blocking fd (a service socket) with a full
                // kernel buffer: wait until writable, then retry.  A
                // blocking fd never reports EAGAIN, so the worker
                // pool's pipes skip this path entirely.  The timeout
                // only fires on *zero* progress for the whole window;
                // a slow-but-reading peer keeps resetting it.
                struct pollfd pfd = {fd, POLLOUT, 0};
                const int pr = ::poll(&pfd, 1, stall_timeout_ms);
                if (pr == 0)
                    return Status(
                        ErrorCode::kUnavailable,
                        "write stalled: peer accepted no bytes for " +
                            std::to_string(stall_timeout_ms) + " ms");
                continue;
            }
            return Status(ErrorCode::kInternal, std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
    return Status::okStatus();
}

Status
writeFrame(int fd, std::string_view type, std::string_view payload)
{
    return writeAll(fd,
                    encodeFrame(kWireMagic, kWireVersion, type,
                                payload));
}

Status
writeFrame(int fd, std::string_view magic, int version,
           std::string_view type, std::string_view payload,
           int stall_timeout_ms)
{
    return writeAll(fd, encodeFrame(magic, version, type, payload),
                    stall_timeout_ms);
}

} // namespace apex::runtime

#ifndef APEX_RUNTIME_WIRE_H_
#define APEX_RUNTIME_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.hpp"

/**
 * @file
 * The frame format, and its one decoder.  Every byte stream this
 * project persists or exchanges is a sequence of frames: the sweep
 * journal and the disk cache (runtime/record.hpp, runtime/cache.hpp),
 * the supervised worker pool's pipes (runtime/worker_pool.hpp) and
 * the service daemon's sockets (src/service/).  A frame is one
 * self-describing unit:
 *
 *     <magic> <version> <type> sum <fnv1a64-hex> len <N>\n
 *     <payload>\n
 *
 * The header names the schema (magic + version) so a format change is
 * detected *before* the payload is interpreted — a stale file or a
 * skewed peer reads as a version mismatch, never as silently-
 * deserialized garbage — and the checksum covers the payload so
 * truncation and bit rot read as corruption.
 *
 * FrameDecoder is the only reader.  It buffers fed bytes and
 * distinguishes "frame complete", "need more bytes" and "stream is
 * poisoned", so it serves a pipe that delivers bytes incrementally
 * and a file (decodeFile) alike.  Once framing is lost there is no
 * resynchronization point, so a corrupt decoder stays corrupt.  On a
 * pipe or socket the owner's only safe move is then to drop the peer
 * (kill the worker, close the connection) — a garbled peer is
 * indistinguishable from a crashed one.  A file reader keeps the
 * frames decoded before the damage: the journal replays that prefix,
 * the cache counts the entry as a miss.
 *
 * Resource bounds: a decoder enforces an explicit maximum frame size
 * (max_payload at construction, kMaxFramePayloadBytes by default) and
 * a maximum header length.  A length field beyond the bound reads as
 * corruption with a clean reason — honoring it would let one flipped
 * bit, a corrupt file or a hostile client make the reader allocate or
 * buffer unbounded memory for bytes that will never arrive.
 */

namespace apex::runtime {

/** One decoded frame. */
struct FramedRecord {
    std::string type;    ///< Caller-defined record kind.
    std::string payload; ///< Checksummed opaque bytes.
};

/** FNV-1a 64-bit hash (frame checksums, cache file names, keys). */
std::uint64_t fnv1a64(std::string_view data,
                      std::uint64_t seed = 14695981039346656037ull);

/** @p v as 16 lowercase hex digits (how checksums and keys print). */
std::string hex64(std::uint64_t v);

/** Encode one frame (header + payload + trailing newline). */
std::string encodeFrame(std::string_view magic, int version,
                        std::string_view type,
                        std::string_view payload);

/** Magic + schema version of worker-pool pipe frames. */
inline constexpr std::string_view kWireMagic = "apexwire";
inline constexpr int kWireVersion = 1;

/** Default upper bound on a single frame payload (64 MiB). */
inline constexpr std::size_t kMaxFramePayloadBytes = 64u << 20;

/** Outcome of one FrameDecoder::next() call. */
enum class DecodeResult {
    kFrame,    ///< One complete, checksum-verified frame extracted.
    kNeedMore, ///< No complete frame buffered yet; feed more bytes.
    kCorrupt,  ///< Framing lost; the stream is permanently poisoned.
};

/**
 * Incremental frame decoder for one byte stream.  feed() appends raw
 * bytes; next() extracts complete frames in order.  After the first
 * corrupt frame the decoder latches kCorrupt forever — a byte stream
 * with broken framing cannot be resynchronized — and corruptReason()
 * names what was wrong (bad header, oversized length, checksum
 * mismatch, ...) so the owner can report a useful error instead of a
 * bare "corrupt".  versionMismatch() tells a schema skew (right
 * magic, other version) apart from damage, which the file readers
 * need: a journal of another schema restarts, a damaged one keeps
 * its prefix.
 */
class FrameDecoder {
  public:
    explicit FrameDecoder(std::string_view magic = kWireMagic,
                          int version = kWireVersion,
                          std::size_t max_payload =
                              kMaxFramePayloadBytes)
        : magic_(magic), version_(version),
          max_payload_(max_payload) {}

    /** Append @p n raw bytes from the stream. */
    void feed(const char *data, std::size_t n);

    /** Extract the next complete frame into @p out (kFrame only). */
    DecodeResult next(FramedRecord *out);

    /** True once any frame failed to decode. */
    bool corrupt() const { return corrupt_; }

    /** Why the decoder latched corrupt ("" while healthy). */
    const std::string &corruptReason() const { return reason_; }

    /** True when it latched corrupt on a frame of the right magic
     * but another schema version. */
    bool versionMismatch() const { return version_mismatch_; }

    /** Largest payload this decoder will accept. */
    std::size_t maxPayload() const { return max_payload_; }

    /** Bytes buffered but not yet consumed (tests / diagnostics). */
    std::size_t buffered() const { return buffer_.size() - pos_; }

  private:
    DecodeResult poison(std::string reason);

    std::string magic_;
    int version_ = 0;
    std::size_t max_payload_ = kMaxFramePayloadBytes;
    std::string buffer_;
    std::size_t pos_ = 0; ///< Consumed prefix of buffer_.
    bool corrupt_ = false;
    bool version_mismatch_ = false;
    std::string reason_;
};

/** Outcome of one drainFd() call. */
enum class DrainResult {
    kOpen,  ///< Everything currently readable was fed; stream open.
    kEof,   ///< Peer closed the stream (after feeding what remained).
    kError, ///< read() failed (not EINTR/EAGAIN).
};

/** How drainFd() decides it has read enough. */
enum class DrainMode {
    /** Loop read() until EAGAIN/EOF.  Correct for *non-blocking* fds
     * only: it guarantees the kernel buffer is empty on return, which
     * the worker pool needs for the final drain of a dead worker. */
    kUntilEagain,
    /** Return after the first successful read() of any size.  The
     * mode for *blocking* fds: a full-buffer read must not trigger
     * another read() — if the bytes in hand already complete a frame,
     * that read would block on a quiet peer forever.  The caller
     * decodes between calls and comes back for more. */
    kSingleRead,
};

/**
 * Feed @p decoder bytes read from @p fd.  With kUntilEagain (the
 * default) loops read() until EAGAIN, EOF or error — non-blocking
 * fds only.  With kSingleRead returns after one successful read; on
 * a blocking fd that read may wait, so callers either poll() first
 * or intend to block for the next frame.  Shared by the worker-pool
 * supervisor, the service daemon's sessions and the service client.
 * decodeFile() drives it over regular files.
 */
DrainResult drainFd(int fd, FrameDecoder &decoder,
                    DrainMode mode = DrainMode::kUntilEagain);

/**
 * Decode a whole regular file: read @p fd to EOF through @p decoder,
 * appending every frame to @p out, and stop at the first damage.
 * True when the file is a clean sequence of frames (it ends on a
 * frame boundary and every read succeeded).  Otherwise @p out holds
 * the frames before the damage, and the decoder tells a schema skew
 * (versionMismatch()) from corruption (corrupt()); neither is set for
 * a torn tail or a read error.  How the sweep journal replays and how
 * the cache reads a disk entry.
 */
bool decodeFile(int fd, FrameDecoder &decoder,
                std::vector<FramedRecord> *out);

/**
 * write() @p bytes to @p fd completely, retrying short writes and
 * EINTR; a failed write() reports its strerror() text.  The caller
 * must ignore SIGPIPE; a closed peer reports a Status instead of
 * killing the process.
 *
 * On a non-blocking fd a full kernel buffer waits for POLLOUT.
 * @p stall_timeout_ms bounds each such wait: if the peer accepts no
 * bytes for that long, writeAll gives up with kUnavailable so a
 * reader that stopped reading costs its own connection, not the
 * writer's thread.  Negative (the default) waits indefinitely —
 * fine for blocking fds (worker-pool pipes never report EAGAIN).
 */
Status writeAll(int fd, std::string_view bytes,
                int stall_timeout_ms = -1);

/** Encode one worker-pool wire frame and write it to @p fd
 * completely. */
Status writeFrame(int fd, std::string_view type,
                  std::string_view payload);

/** Encode one frame of an arbitrary protocol (magic/version chosen by
 * the caller, e.g. the service protocol) and write it to @p fd,
 * bounding write stalls by @p stall_timeout_ms (see writeAll). */
Status writeFrame(int fd, std::string_view magic, int version,
                  std::string_view type, std::string_view payload,
                  int stall_timeout_ms = -1);

} // namespace apex::runtime

#endif // APEX_RUNTIME_WIRE_H_

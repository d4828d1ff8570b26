#ifndef APEX_SERVICE_SESSION_H_
#define APEX_SERVICE_SESSION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/wire.hpp"
#include "service/protocol.hpp"

/**
 * @file
 * One accepted connection of the DSE service.
 *
 * A Session owns the socket fd, the incremental frame decoder and the
 * handshake state machine.  The first frame on every connection must
 * be `hello` carrying the client's protocol version: a mismatch is
 * answered with `hello.err` naming both versions and the session is
 * dropped — version skew fails loudly at the handshake, never as a
 * garbled payload mid-request.  After `hello.ok` the session is
 * *ready* and decoded frames are handed to the server for dispatch.
 *
 * Threading: the io thread owns all reads.  send() performs a
 * complete write and may be called from the io thread only
 * (executors hand outbound frames to the io thread via the server's
 * outbound queue).  A write that makes zero progress for the stall
 * bound (kernel buffer full, peer not reading) fails instead of
 * wedging the io thread; the server then drops the session — a
 * stuck peer costs one session and at most one stall window, never
 * the daemon.
 */

namespace apex::service {

class Session {
  public:
    Session(int fd, std::uint64_t id);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    int fd() const { return fd_; }
    std::uint64_t id() const { return id_; }
    bool ready() const { return ready_; }

    /**
     * Drain readable bytes and decode frames.  The hello handshake is
     * handled internally (replies sent, state advanced); frames
     * arriving after a completed handshake are appended to @p out for
     * the server to dispatch.  Returns false when the session must be
     * dropped: peer closed, read error, corrupt stream, failed
     * handshake, or a failed reply write.
     */
    bool onReadable(std::vector<runtime::FramedRecord> *out);

    /** Send one protocol frame (complete blocking write).  False on
     * a write failure — the caller drops the session. */
    bool send(std::string_view type, std::string_view payload);

  private:
    /** Consume buffered frames; false drops the session. */
    bool dispatchDecoded(std::vector<runtime::FramedRecord> *out);

    int fd_ = -1;
    std::uint64_t id_ = 0;
    bool ready_ = false;
    runtime::FrameDecoder decoder_;
};

} // namespace apex::service

#endif // APEX_SERVICE_SESSION_H_

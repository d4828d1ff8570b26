#ifndef APEX_SERVICE_VERSION_H_
#define APEX_SERVICE_VERSION_H_

#include <string>

/**
 * @file
 * Build and protocol identity of the DSE service.
 *
 * Every binary that speaks the service protocol (apexd, apexc)
 * reports the same triple — build commit, build flags, protocol
 * version — so a client/daemon skew fails with a message naming both
 * sides instead of a cryptic frame error mid-request.  The protocol
 * version is bumped on any wire-incompatible change to the payload
 * schemas in protocol.hpp; the framing layer (runtime/wire.hpp) has
 * its own version, checked one layer below.
 */

namespace apex::service {

/** Request/reply schema version spoken by this build.  Hello frames
 * carry it, and the handshake refuses any other version by name:
 * both sides of a connection speak exactly this version.
 * v2: reject frames carry a retry_after_ms load-shedding hint.
 * v3: sweep/progress frames carry a request trace_id; `trace` and
 *     `statusz` conversations added.
 * v4: SweepRequest::deadline_ms < 0 means unbounded and 0 means
 *     already expired (v3 read <= 0 as unbounded).
 * v5: a statusz.ok sample is its timestamp plus one hex-float value
 *     per kStatuszVitals entry, in table order. */
inline constexpr int kProtocolVersion = 5;

/** Short git commit this binary was built from ("unknown" when the
 * build ran outside a checkout). */
std::string buildCommit();

/** Build configuration (CMAKE_BUILD_TYPE; "unknown" when absent). */
std::string buildFlags();

/** One-line identity: "apex <commit> (<flags>) protocol v<N>". */
std::string versionString();

} // namespace apex::service

#endif // APEX_SERVICE_VERSION_H_

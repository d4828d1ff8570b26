#ifndef APEX_TESTS_FRAME_FORGE_H_
#define APEX_TESTS_FRAME_FORGE_H_

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/**
 * @file
 * Test helper: rewrite one frame's `len` field in a framed file (a
 * sweep journal, a cache entry) — the damage a corrupt disk or a
 * hostile writer leaves behind.  Plain string surgery with no link
 * dependency, so the process tests can use it too.
 */

namespace apex::test {

/** A length no reader may honor (~100 PB). */
inline constexpr std::string_view kForgedLength = "99999999999999999";

/** Frame index meaning "the last frame in the file". */
inline constexpr std::size_t kLastFrame = static_cast<std::size_t>(-1);

/** Rewrite the `len` field of frame @p frame (0-based, or kLastFrame)
 * of the file at @p path to @p len.  The frames up to that one must
 * be intact. */
inline void
forgeFrameLength(const std::string &path, std::size_t frame,
                 std::string_view len = kForgedLength)
{
    std::string bytes;
    {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        bytes = os.str();
    }
    // [start, end) of each header's length digits:
    // "<magic> <version> <type> sum <hex> len <digits>\n".
    std::vector<std::pair<std::size_t, std::size_t>> fields;
    for (std::size_t at = 0; at < bytes.size();) {
        const std::size_t eol = bytes.find('\n', at);
        if (eol == std::string::npos)
            break;
        const std::size_t digits = bytes.rfind(" len ", eol) + 5;
        fields.emplace_back(digits, eol);
        if (frame != kLastFrame && fields.size() > frame)
            break;
        at = eol + 1 + std::stoull(bytes.substr(digits, eol - digits)) +
             1;
    }
    const auto [start, end] =
        fields.at(frame == kLastFrame ? fields.size() - 1 : frame);
    bytes.replace(start, end - start, len);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

} // namespace apex::test

#endif // APEX_TESTS_FRAME_FORGE_H_

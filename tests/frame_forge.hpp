#ifndef APEX_TESTS_FRAME_FORGE_H_
#define APEX_TESTS_FRAME_FORGE_H_

#include <cstddef>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/**
 * @file
 * Test helpers that damage encoded bytes the way a corrupt disk or a
 * hostile peer would: rewrite one frame's `len` field in a framed
 * file (a sweep journal, a cache entry), or apply seeded random
 * mutations to frames and payloads.  Plain string surgery with no
 * link dependency, so the process tests can use it too.
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

/**
 * One random damage to @p bytes: a flipped bit, a deleted or
 * duplicated byte, a truncation, or the number that starts at one of
 * the offsets @p numbers (up to the next space or newline)
 * overwritten with a run of 1-20 digits.  Driven by a seeded @p rng,
 * so a failure names its seed and replays exactly.
 */
inline void
mutate(std::string &bytes, const std::vector<std::size_t> &numbers,
       std::mt19937 &rng)
{
    const auto pick = [&rng](std::size_t n) {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    if (bytes.empty())
        return;
    switch (pick(5)) {
      case 0:
        bytes[pick(bytes.size())] ^= static_cast<char>(1u << pick(8));
        return;
      case 1:
        bytes.erase(pick(bytes.size()), 1);
        return;
      case 2: {
        const std::size_t at = pick(bytes.size());
        bytes.insert(at, 1, bytes[at]);
        return;
      }
      case 3:
        bytes.resize(pick(bytes.size()));
        return;
      default:
        break;
    }
    if (numbers.empty())
        return;
    const std::size_t start = numbers[pick(numbers.size())];
    std::size_t end = start;
    while (end < bytes.size() && bytes[end] != ' ' && bytes[end] != '\n')
        ++end;
    std::string digits(1 + pick(20), '0');
    for (char &c : digits)
        c = static_cast<char>('0' + pick(10));
    bytes.replace(start, end - start, digits);
}

/** Offsets of the header numbers (version, sum, len) of the frames
 * of @p magic in @p bytes. */
inline std::vector<std::size_t>
frameNumbers(const std::string &bytes, std::string_view magic)
{
    std::vector<std::size_t> fields;
    for (const std::string &tag :
         {std::string(magic) + ' ', std::string(" sum "),
          std::string(" len ")}) {
        for (std::size_t at = bytes.find(tag); at != std::string::npos;
             at = bytes.find(tag, at + 1))
            fields.push_back(at + tag.size());
    }
    return fields;
}

/** Offsets where each run of decimal digits in @p bytes starts. */
inline std::vector<std::size_t>
digitRuns(const std::string &bytes)
{
    std::vector<std::size_t> starts;
    for (std::size_t i = 0; i < bytes.size(); ++i)
        if (bytes[i] >= '0' && bytes[i] <= '9' &&
            (i == 0 || bytes[i - 1] < '0' || bytes[i - 1] > '9'))
            starts.push_back(i);
    return starts;
}

} // namespace apex::test

#endif // APEX_TESTS_FRAME_FORGE_H_

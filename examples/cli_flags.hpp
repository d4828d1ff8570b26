#ifndef APEX_EXAMPLES_CLI_FLAGS_H_
#define APEX_EXAMPLES_CLI_FLAGS_H_

#include <charconv>
#include <cstring>
#include <initializer_list>
#include <string>

#include "core/status.hpp"

/**
 * @file
 * Command-line flag lookup shared by apexc and apexd.  A flag's value
 * is the argument after it; a numeric value must be one whole number
 * of the flag's type, so a typo is a usage error instead of a silent
 * zero.
 */

namespace apex::cli {

/** The argument after @p flag; null when @p flag is absent or last. */
inline const char *
flagValue(int argc, char **argv, const char *flag)
{
    for (int i = 0; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return nullptr;
}

inline bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 0; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

/**
 * Parse @p text, the value of @p name (a flag or an environment
 * variable), into @p out.  The whole token must parse as a T ("8",
 * "-1", "0.5" for a double); anything else ("abc", "10ms", "") is
 * kInvalidArgument naming @p name and the value, and leaves @p out
 * as it was.
 */
template <typename T>
Status
numericValue(const char *text, const char *name, T *out)
{
    const char *end = text + std::strlen(text);
    T value{};
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end)
        return Status(ErrorCode::kInvalidArgument,
                      "malformed value '" + std::string(text) +
                          "' for " + name);
    *out = value;
    return Status::okStatus();
}

/** numericValue() of numeric @p flag; @p out keeps its value when
 * the flag is absent. */
template <typename T>
Status
numericFlag(int argc, char **argv, const char *flag, T *out)
{
    const char *text = flagValue(argc, argv, flag);
    if (text == nullptr)
        return Status::okStatus();
    return numericValue(text, flag, out);
}

/** The first failure of @p statuses, in order; ok when none failed. */
inline Status
firstError(std::initializer_list<Status> statuses)
{
    for (const Status &s : statuses)
        if (!s.ok())
            return s;
    return Status::okStatus();
}

} // namespace apex::cli

#endif // APEX_EXAMPLES_CLI_FLAGS_H_

/**
 * @file
 * Whole-token integer parsing: the one strict reader behind the
 * harness's counts, shard specs, interleave seeds and journal
 * integers.
 */

#ifndef PTH_COMMON_PARSE_HH
#define PTH_COMMON_PARSE_HH

#include <charconv>
#include <string_view>
#include <system_error>

namespace pth
{

/**
 * Parse all of text as a base-`base` integer of type T with
 * std::from_chars: no space, no prefix, no sign for an unsigned T,
 * nothing trailing, and a value that fits T ("4x", "-1", "+3", " 1",
 * "1.5", "3e0", "0x10" and "" are rejected). Returns false, leaving
 * out untouched, otherwise.
 */
template <class T>
bool
parseWhole(std::string_view text, T &out, int base = 10)
{
    if (text.empty())
        return false;
    const char *end = text.data() + text.size();
    T value = 0;
    const auto [last, ec] =
        std::from_chars(text.data(), end, value, base);
    if (ec != std::errc() || last != end)
        return false;
    out = value;
    return true;
}

} // namespace pth

#endif // PTH_COMMON_PARSE_HH

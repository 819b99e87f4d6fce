// Checked numeric command-line reads shared by the tools.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>

namespace hyperpath::tools {

/// Reads a numeric flag value: the whole of `text`, strtoll (base 10) for
/// an integral T and strtod otherwise, within [lo, hi].  On trailing
/// characters, overflow or a value out of range it names the flag on
/// stderr and returns false, leaving `out` untouched.
template <typename T>
bool parse_number(const char* flag, const char* text, T lo, T hi, T& out) {
  errno = 0;
  char* end = nullptr;
  bool in_range = false;
  T value{};
  if constexpr (std::is_integral_v<T>) {
    const long long v = std::strtoll(text, &end, 10);
    in_range = v >= static_cast<long long>(lo) &&
               v <= static_cast<long long>(hi);
    value = static_cast<T>(v);
  } else {
    const double v = std::strtod(text, &end);
    in_range = v >= lo && v <= hi;  // false for NaN
    value = v;
  }
  if (end == text || *end != '\0' || errno == ERANGE || !in_range) {
    if constexpr (std::is_integral_v<T>) {
      std::fprintf(stderr, "%s: expected an integer in [%s, %s], got '%s'\n",
                   flag, std::to_string(lo).c_str(),
                   std::to_string(hi).c_str(), text);
    } else {
      std::fprintf(stderr, "%s: expected a number in [%g, %g], got '%s'\n",
                   flag, lo, hi, text);
    }
    return false;
  }
  out = value;
  return true;
}

}  // namespace hyperpath::tools

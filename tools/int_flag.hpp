// Integer command-line values for the tools (ara_cli, ara_serve,
// ara_loadgen, ara_worker). Every integer flag is a count, a size, a
// weight or a seed, so the whole value must be a non-negative decimal
// that fits the type it fills: "2k", "-1", "x" or 2^32 for an unsigned
// field is an error naming the flag, never a partial parse, a wrap or
// a truncation.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace ara::tools {

/// Parses `value`, given for `flag` (as written, e.g. "--cores"), into
/// T. Throws std::invalid_argument("bad integer for <flag>: <value>")
/// unless `value` is only decimal digits and fits T.
template <typename T>
T parse_int_flag(const std::string& flag, const std::string& value) {
  static_assert(std::is_integral_v<T> && std::is_unsigned_v<T>,
                "integer flags fill unsigned fields");
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), nullptr, 10);
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos ||
      errno == ERANGE || parsed > std::numeric_limits<T>::max()) {
    throw std::invalid_argument("bad integer for " + flag + ": " + value);
  }
  return static_cast<T>(parsed);
}

}  // namespace ara::tools

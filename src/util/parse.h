//===- util/parse.h - Full-token numeric parsing ---------------*- C++ -*-===//
///
/// \file
/// strtoll/strtoull/strtod with full-token validation, for numbers that
/// arrive as text (spec strings, command-line flags). Each returns false,
/// leaving \p Out untouched, on anything but one complete, in-range, finite
/// numeric token, so a malformed value is a clean error, never an abort.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_UTIL_PARSE_H
#define GENPROVE_UTIL_PARSE_H

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace genprove {

inline bool parseInt(const std::string &Text, int64_t &Out) {
  if (Text.empty())
    return false;
  char *End = nullptr;
  errno = 0;
  const long long V = std::strtoll(Text.c_str(), &End, 10);
  if (End != Text.c_str() + Text.size() || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

/// Digits only: no sign, so "-1" cannot wrap around to 2^64 - 1.
inline bool parseInt(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || !std::isdigit(static_cast<unsigned char>(Text[0])))
    return false;
  char *End = nullptr;
  errno = 0;
  const unsigned long long V = std::strtoull(Text.c_str(), &End, 10);
  if (End != Text.c_str() + Text.size() || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

inline bool parseReal(const std::string &Text, double &Out) {
  if (Text.empty())
    return false;
  char *End = nullptr;
  const double V = std::strtod(Text.c_str(), &End);
  if (End != Text.c_str() + Text.size() || !std::isfinite(V))
    return false;
  Out = V;
  return true;
}

} // namespace genprove

#endif // GENPROVE_UTIL_PARSE_H

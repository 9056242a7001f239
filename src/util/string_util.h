#ifndef HOSR_UTIL_STRING_UTIL_H_
#define HOSR_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/statusor.h"

namespace hosr::util {

// Splits on `delim`; empty fields are preserved ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view text, char delim);

bool StartsWith(std::string_view text, std::string_view prefix);

// Strict numeric parsing: the whole string must be consumed.
StatusOr<int64_t> ParseInt(std::string_view text);
StatusOr<double> ParseDouble(std::string_view text);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace hosr::util

#endif  // HOSR_UTIL_STRING_UTIL_H_

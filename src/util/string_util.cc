#include "util/string_util.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cerrno>

namespace hosr::util {

std::vector<std::string> Split(std::string_view text, char delim) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      return parts;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

StatusOr<int64_t> ParseInt(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty integer");
  std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not an integer: " + buf);
  }
  return static_cast<int64_t>(value);
}

StatusOr<double> ParseDouble(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty number");
  std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status::OutOfRange("number out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not a number: " + buf);
  }
  return value;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace hosr::util

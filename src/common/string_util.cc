#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace fairrec {

std::vector<std::string> Split(std::string_view input, char delimiter) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      return out;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Join(const std::vector<std::string>& parts, std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += separator;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(input[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(input[end - 1]))) --end;
  return input.substr(begin, end - begin);
}

std::string ToLower(std::string_view input) {
  std::string out(input);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

namespace {

/// Runs a strtoX-style parser over a NUL-terminated copy of `token` and
/// accepts only a full, in-range parse.
template <typename T, typename Parse>
Result<T> ParseWhole(std::string_view token, const char* what, Parse parse) {
  const std::string text(token);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return Status::InvalidArgument("'" + text + "' is not " + what);
  }
  errno = 0;
  char* end = nullptr;
  const T value = parse(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    return Status::InvalidArgument("'" + text + "' is not " + what);
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument("'" + text + "' is out of range for " +
                                   what);
  }
  return value;
}

}  // namespace

Result<int64_t> ParseInt64(std::string_view token) {
  return ParseWhole<int64_t>(token, "an integer",
                             [](const char* s, char** end) -> int64_t {
                               return std::strtoll(s, end, 10);
                             });
}

Result<double> ParseDouble(std::string_view token) {
  return ParseWhole<double>(token, "a number", [](const char* s, char** end) {
    return std::strtod(s, end);
  });
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string FormatWithThousands(int64_t value) {
  const bool negative = value < 0;
  std::string digits = std::to_string(negative ? -value : value);
  std::string out;
  const size_t n = digits.size();
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && (n - i) % 3 == 0) out += ',';
    out += digits[i];
  }
  return negative ? "-" + out : out;
}

}  // namespace fairrec

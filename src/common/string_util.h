#ifndef FAIRREC_COMMON_STRING_UTIL_H_
#define FAIRREC_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace fairrec {

/// Splits on a single-character delimiter; adjacent delimiters yield empty
/// fields; the empty input yields a single empty field.
std::vector<std::string> Split(std::string_view input, char delimiter);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view separator);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view input);

/// ASCII lowercase copy.
std::string ToLower(std::string_view input);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Strict decimal parsers: the whole token must be a number (no leading
/// whitespace, no trailing characters) that fits the type; anything else,
/// including "", is InvalidArgument. Callers trim first if they accept
/// padding.
Result<int64_t> ParseInt64(std::string_view token);
Result<double> ParseDouble(std::string_view token);

/// ParseInt64 narrowed to the integer type T (an id, a count, a seed):
/// InvalidArgument when the value does not fit.
template <typename T>
Result<T> ParseInt(std::string_view token) {
  FAIRREC_ASSIGN_OR_RETURN(const int64_t value, ParseInt64(token));
  if (!std::in_range<T>(value)) {
    return Status::InvalidArgument("'" + std::string(token) +
                                   "' is out of range");
  }
  return static_cast<T>(value);
}

/// Fixed-precision decimal formatting without locale surprises.
std::string FormatDouble(double value, int precision);

/// 12345678 -> "12,345,678" (used by the benchmark tables).
std::string FormatWithThousands(int64_t value);

}  // namespace fairrec

#endif  // FAIRREC_COMMON_STRING_UTIL_H_

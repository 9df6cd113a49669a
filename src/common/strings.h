// Small string and formatting helpers shared across modules.

#ifndef PREDICT_COMMON_STRINGS_H_
#define PREDICT_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace predict {

/// Splits `input` on `delimiter`, dropping empty tokens.
std::vector<std::string> SplitString(std::string_view input, char delimiter);

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

/// True iff `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Formats seconds with adaptive units for human-readable reports
/// (e.g. "43.2 s", "3.1 min").
std::string FormatSeconds(double seconds);

/// Formats a byte count with adaptive units (e.g. "1.4 GB").
std::string FormatBytes(uint64_t bytes);

/// Left-pads `s` with spaces to `width` characters (for table output).
std::string PadLeft(const std::string& s, size_t width);

/// Right-pads `s` with spaces to `width` characters (for table output).
std::string PadRight(const std::string& s, size_t width);

}  // namespace predict

#endif  // PREDICT_COMMON_STRINGS_H_

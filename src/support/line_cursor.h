// Allocation-free tokenizer over one text line, shared by the record
// parsers: tree/io.h's node lines and serve/wire.h's record headers and
// delta lines.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace treeplace {

/// A read position in one line.  Tokens are separated by blanks (space or
/// tab).  Integers parse with std::from_chars after an optional leading
/// '+': a '-' is accepted only by signed types, so a negative count is
/// malformed rather than wrapped, and an out-of-range value is malformed
/// rather than clamped.
struct LineCursor {
  const char* p;
  const char* end;

  explicit LineCursor(std::string_view line)
      : p(line.data()), end(line.data() + line.size()) {}

  void skip_blanks() {
    while (p < end && (*p == ' ' || *p == '\t')) ++p;
  }

  /// True when only blanks remain.
  bool at_end() {
    skip_blanks();
    return p == end;
  }

  /// Consumes the next non-blank character (a record tag); '\0' at the end
  /// of the line.  The number after a tag may follow it without a blank.
  char next_char() {
    skip_blanks();
    return p < end ? *p++ : '\0';
  }

  /// Parses the next integer into `out`; false (nothing consumed) when the
  /// next token does not start with one.
  template <typename T>
  bool parse_int(T& out) {
    skip_blanks();
    const char* start = p;
    if (start < end && *start == '+') ++start;
    const auto [next, ec] = std::from_chars(start, end, out);
    if (ec != std::errc{}) return false;
    p = next;
    return true;
  }

  /// The next blank-delimited token; empty at the end of the line.
  std::string_view next_token() {
    skip_blanks();
    const char* start = p;
    while (p < end && *p != ' ' && *p != '\t') ++p;
    return {start, static_cast<std::size_t>(p - start)};
  }
};

}  // namespace treeplace

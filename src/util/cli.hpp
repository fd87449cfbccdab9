// Strict command-line parsing shared by the example and bench CLIs.
// Hand-rolled loops silently ignored unknown flags and parsed garbage
// numerics as 0 via strtol — a mistyped `--sceanrios=...` or a stray
// argument would run a soak with defaults and report success. Here every
// flag must be declared, every declared value-flag must carry a
// non-empty value, and numerics must consume their whole token;
// violations produce an error for the caller to print alongside its
// usage text before exiting non-zero.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sbk::cli {

/// One accepted `--name` flag. `requires_value` flags take the form
/// `--name=value`; bare flags reject any attached value.
struct FlagSpec {
  std::string_view name;  ///< without the leading "--"
  bool requires_value = true;
};

struct ParsedFlag {
  std::string name;
  std::string value;  ///< empty for bare flags
};

/// Result of parse_args: either ok() with flags/positionals, or an
/// error message describing the first rejected argument.
struct ParseResult {
  std::vector<ParsedFlag> flags;
  std::vector<std::string> positional;
  std::string error;

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
  /// Last value of a flag, or nullopt when absent.
  [[nodiscard]] std::optional<std::string> value_of(
      std::string_view name) const;
  [[nodiscard]] bool has(std::string_view name) const;
};

/// Parses argv[1..argc). Arguments starting with "--" must match a spec;
/// anything else is positional. `max_positional` bounds the positional
/// count (excess is an error, catching forgotten `--` prefixes).
[[nodiscard]] ParseResult parse_args(int argc, const char* const* argv,
                                     const std::vector<FlagSpec>& specs,
                                     std::size_t max_positional = 64);

/// Whole-token numeric conversions: "12x", "", and out-of-range values
/// yield nullopt instead of a silent prefix parse; so do the non-finite
/// doubles "nan", "inf" and "-inf".
[[nodiscard]] std::optional<long long> parse_int(std::string_view text);
[[nodiscard]] std::optional<double> parse_double(std::string_view text);

/// A `--name=<integer>` flag and the value it takes when absent.
struct IntFlag {
  std::string_view name;
  long long fallback;
};

/// Result of parse_int_flags.
struct IntFlags {
  std::vector<std::pair<std::string, long long>> values;  ///< declared order
  std::vector<std::string> positional;

  /// Value of a declared flag: as given, or its fallback when absent.
  [[nodiscard]] long long get(std::string_view name) const;
};

/// parse_args for a harness whose flags are all integers with defaults.
/// On an unknown flag, a missing or non-integer value, or more than
/// `max_positional` positionals, prints the error and the usage line
/// `usage: <argv[0]> <synopsis> [--name=<fallback>]...` to stderr and
/// returns nullopt; the caller then exits with status 2.
[[nodiscard]] std::optional<IntFlags> parse_int_flags(
    int argc, const char* const* argv, const std::vector<IntFlag>& flags,
    std::size_t max_positional = 0, std::string_view synopsis = {});

}  // namespace sbk::cli

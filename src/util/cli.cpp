#include "util/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/assert.hpp"

namespace sbk::cli {

std::optional<std::string> ParseResult::value_of(
    std::string_view name) const {
  std::optional<std::string> out;
  for (const ParsedFlag& f : flags) {
    if (f.name == name) out = f.value;
  }
  return out;
}

bool ParseResult::has(std::string_view name) const {
  for (const ParsedFlag& f : flags) {
    if (f.name == name) return true;
  }
  return false;
}

ParseResult parse_args(int argc, const char* const* argv,
                       const std::vector<FlagSpec>& specs,
                       std::size_t max_positional) {
  ParseResult out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (out.positional.size() >= max_positional) {
        out.error = "unexpected extra argument '" + std::string(arg) + "'";
        return out;
      }
      out.positional.emplace_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string_view name =
        arg.substr(2, eq == std::string_view::npos ? eq : eq - 2);
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& s : specs) {
      if (s.name == name) { spec = &s; break; }
    }
    if (spec == nullptr) {
      out.error = "unknown flag '--" + std::string(name) + "'";
      return out;
    }
    if (spec->requires_value) {
      if (eq == std::string_view::npos || eq + 1 == arg.size()) {
        out.error = "flag '--" + std::string(name) +
                    "' requires a value: --" + std::string(name) + "=<value>";
        return out;
      }
      out.flags.push_back({std::string(name), std::string(arg.substr(eq + 1))});
    } else {
      if (eq != std::string_view::npos) {
        out.error = "flag '--" + std::string(name) + "' takes no value";
        return out;
      }
      out.flags.push_back({std::string(name), ""});
    }
  }
  return out;
}

std::optional<long long> parse_int(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

std::optional<double> parse_double(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  // strtod also spells "nan", "inf" and "infinity"; no flag wants them.
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

long long IntFlags::get(std::string_view name) const {
  for (const auto& [flag, value] : values) {
    if (flag == name) return value;
  }
  SBK_EXPECTS_MSG(false, "flag was not declared");
  return 0;
}

std::optional<IntFlags> parse_int_flags(int argc, const char* const* argv,
                                        const std::vector<IntFlag>& flags,
                                        std::size_t max_positional,
                                        std::string_view synopsis) {
  std::vector<FlagSpec> specs;
  for (const IntFlag& f : flags) specs.push_back({f.name, true});
  ParseResult parsed = parse_args(argc, argv, specs, max_positional);
  IntFlags out;
  std::string error = parsed.error;
  for (const IntFlag& f : flags) {
    if (!error.empty()) break;
    long long value = f.fallback;
    if (const std::optional<std::string> text = parsed.value_of(f.name)) {
      const std::optional<long long> n = parse_int(*text);
      if (!n.has_value()) {
        error = "flag '--" + std::string(f.name) +
                "' needs an integer, got '" + *text + "'";
        break;
      }
      value = *n;
    }
    out.values.emplace_back(f.name, value);
  }
  if (error.empty()) {
    out.positional = std::move(parsed.positional);
    return out;
  }
  std::fprintf(stderr, "%s: %s\nusage: %s", argv[0], error.c_str(), argv[0]);
  if (!synopsis.empty()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(synopsis.size()),
                 synopsis.data());
  }
  for (const IntFlag& f : flags) {
    std::fprintf(stderr, " [--%.*s=%lld]", static_cast<int>(f.name.size()),
                 f.name.data(), f.fallback);
  }
  std::fprintf(stderr, "\n");
  return std::nullopt;
}

}  // namespace sbk::cli

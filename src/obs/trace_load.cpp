#include "obs/trace_load.hpp"

#include <cctype>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace sbk::obs {

namespace {

// --- minimal JSON value model -------------------------------------------------

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonMember = std::pair<std::string, JsonValue>;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<JsonMember> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const JsonMember& m : object) {
      if (m.first == key) return &m.second;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("trace JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        if (consume_literal("true")) {
          v.boolean = true;
        } else if (consume_literal("false")) {
          v.boolean = false;
        } else {
          fail("bad literal");
        }
        return v;
      }
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return number();
    }
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // The recorder only emits \u00XX for control bytes; decode the
          // Latin-1 range and pass anything wider through as '?'.
          out.push_back(code <= 0xFF ? static_cast<char>(code) : '?');
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    char* end = nullptr;
    v.number = std::strtod(text_.c_str() + start, &end);
    if (end != text_.c_str() + pos_) fail("bad number");
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

double number_or(const JsonValue* v, double fallback) {
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number
                                                             : fallback;
}

std::string string_or(const JsonValue* v, std::string fallback) {
  return v != nullptr && v->kind == JsonValue::Kind::kString ? v->string
                                                             : fallback;
}

}  // namespace

std::vector<TraceEvent> load_trace_json(const std::string& text) {
  JsonValue root = Parser(text).parse();
  if (root.kind != JsonValue::Kind::kObject) {
    throw std::runtime_error("trace JSON: top level is not an object");
  }
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    throw std::runtime_error("trace JSON: missing traceEvents array");
  }
  std::vector<TraceEvent> out;
  out.reserve(events->array.size());
  for (const JsonValue& ev : events->array) {
    if (ev.kind != JsonValue::Kind::kObject) {
      throw std::runtime_error("trace JSON: traceEvents entry is not an object");
    }
    const std::string ph = string_or(ev.find("ph"), "");
    if (ph != "X" && ph != "i" && ph != "C") continue;  // foreign metadata
    TraceEvent e;
    e.phase = static_cast<TracePhase>(ph[0]);
    e.track = static_cast<std::uint32_t>(number_or(ev.find("pid"), 0.0));
    e.category = string_or(ev.find("cat"), "");
    e.name = string_or(ev.find("name"), "");
    e.ts = number_or(ev.find("ts"), 0.0) / 1e6;
    e.dur = number_or(ev.find("dur"), 0.0) / 1e6;
    if (const JsonValue* args = ev.find("args");
        args != nullptr && args->kind == JsonValue::Kind::kObject) {
      e.value = number_or(args->find("value"), 0.0);
      e.wall_us = number_or(args->find("wall_us"), -1.0);
      e.detail = string_or(args->find("detail"), "");
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<TraceEvent> load_trace_json(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  return load_trace_json(buf.str());
}

}  // namespace sbk::obs

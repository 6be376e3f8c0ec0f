#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace tinysdr::obs {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  // Integral values print without an exponent or trailing ".0" so counters
  // look like counters; everything else is shortest-round-trip.
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  char buf[40];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{}) return "0";
  return std::string(buf, end);
}

std::string json_quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
  return out;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  auto it = members.find(key);
  return it == members.end() ? nullptr : &it->second;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

std::optional<double> JsonValue::integer_in(const std::string& key,
                                            double lo, double hi) const {
  const JsonValue* v = find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  if (v->number != std::floor(v->number)) return std::nullopt;
  if (v->number < lo || v->number > hi) return std::nullopt;
  return v->number;
}

std::string_view JsonValue::string_or(const std::string& key,
                                      std::string_view fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_string()) ? std::string_view{v->text}
                                          : fallback;
}

bool JsonValue::bool_or(const std::string& key, bool fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->kind == Kind::kBool) ? v->boolean : fallback;
}

namespace {

/// Recursive-descent parser over a string_view with a cursor.
class Parser {
 public:
  explicit Parser(std::string_view src) : src_(src) {}

  std::optional<JsonValue> run() {
    auto v = value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != src_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < src_.size() &&
           std::isspace(static_cast<unsigned char>(src_[pos_])))
      ++pos_;
  }

  [[nodiscard]] bool eat(char c) {
    skip_ws();
    if (pos_ < src_.size() && src_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (src_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<JsonValue> value() {
    skip_ws();
    if (pos_ >= src_.size()) return std::nullopt;
    JsonValue v;
    switch (src_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == JsonValue::kMaxDepth) return std::nullopt;
        ++depth_;
        auto nested = src_[pos_] == '{' ? object() : array();
        --depth_;
        return nested;
      }
      case '"': {
        auto s = string();
        if (!s) return std::nullopt;
        v.kind = JsonValue::Kind::kString;
        v.text = std::move(*s);
        return v;
      }
      case 't':
        if (!literal("true")) return std::nullopt;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      case 'f':
        if (!literal("false")) return std::nullopt;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = false;
        return v;
      case 'n':
        if (!literal("null")) return std::nullopt;
        v.kind = JsonValue::Kind::kNull;
        return v;
      default:
        return number();
    }
  }

  std::optional<JsonValue> number() {
    std::size_t start = pos_;
    if (pos_ < src_.size() && (src_[pos_] == '-' || src_[pos_] == '+')) ++pos_;
    bool digits = false;
    while (pos_ < src_.size() &&
           (std::isdigit(static_cast<unsigned char>(src_[pos_])) ||
            src_[pos_] == '.' || src_[pos_] == 'e' || src_[pos_] == 'E' ||
            src_[pos_] == '-' || src_[pos_] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(src_[pos_]))) digits = true;
      ++pos_;
    }
    if (!digits) return std::nullopt;
    double out = 0.0;
    auto [end, ec] =
        std::from_chars(src_.data() + start, src_.data() + pos_, out);
    if (ec != std::errc{} || end != src_.data() + pos_) return std::nullopt;
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = out;
    return v;
  }

  std::optional<std::string> string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos_ < src_.size()) {
      char c = src_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= src_.size()) return std::nullopt;
      char esc = src_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > src_.size()) return std::nullopt;
          unsigned code = 0;
          auto [end, ec] = std::from_chars(src_.data() + pos_,
                                           src_.data() + pos_ + 4, code, 16);
          if (ec != std::errc{} || end != src_.data() + pos_ + 4)
            return std::nullopt;
          pos_ += 4;
          // The emitter only escapes control characters, so a plain
          // single-byte append covers everything we round-trip.
          if (code > 0xFF) return std::nullopt;
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<JsonValue> array() {
    if (!eat('[')) return std::nullopt;
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (eat(']')) return v;
    while (true) {
      auto item = value();
      if (!item) return std::nullopt;
      v.items.push_back(std::move(*item));
      if (eat(']')) return v;
      if (!eat(',')) return std::nullopt;
    }
  }

  std::optional<JsonValue> object() {
    if (!eat('{')) return std::nullopt;
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (eat('}')) return v;
    while (true) {
      skip_ws();
      auto key = string();
      if (!key) return std::nullopt;
      if (!eat(':')) return std::nullopt;
      auto member = value();
      if (!member) return std::nullopt;
      v.members.emplace(std::move(*key), std::move(*member));
      if (eat('}')) return v;
      if (!eat(',')) return std::nullopt;
    }
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects currently open
};

}  // namespace

std::optional<JsonValue> JsonValue::parse(std::string_view src) {
  return Parser{src}.run();
}

}  // namespace tinysdr::obs

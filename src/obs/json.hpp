// Minimal JSON utilities for the telemetry layer: deterministic number
// formatting, string escaping, and a small recursive-descent parser for
// reading back the documents this repo itself emits (metrics snapshots,
// bench results). Deliberately not a general-purpose JSON library — just
// enough for byte-identical export and round-trip tests without an
// external dependency.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tinysdr::obs {

/// Shortest round-trip decimal form of a double (std::to_chars), so the
/// same value always prints the same bytes and parses back exactly.
/// Infinities and NaN are not representable in JSON; they render as 0.
[[nodiscard]] std::string json_number(double value);

/// Escape a string for embedding in a JSON document (adds the quotes).
[[nodiscard]] std::string json_quote(std::string_view text);

/// Parsed JSON value. Object members live in a sorted std::map, which is
/// all the deterministic round-trip consumers need (member order in the
/// source document is not preserved).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> members;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Member's number value, or `fallback` when absent / wrong type.
  [[nodiscard]] double number_or(const std::string& key,
                                 double fallback) const;

  /// Member's string value, or `fallback` when absent / wrong type.
  [[nodiscard]] std::string_view string_or(const std::string& key,
                                           std::string_view fallback) const;

  /// Member's boolean value, or `fallback` when absent / wrong type.
  [[nodiscard]] bool bool_or(const std::string& key, bool fallback) const;

  /// Member's value when it is an exact integer in [lo, hi]; nullopt when
  /// absent, not a number, fractional or out of range.
  [[nodiscard]] std::optional<double> integer_in(const std::string& key,
                                                 double lo, double hi) const;

  /// Integers ride in JSON doubles; beyond 2^53 they stop round-tripping.
  static constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

  /// Parse a complete document. nullopt on any syntax error, trailing
  /// garbage, or arrays/objects nested deeper than kMaxDepth.
  [[nodiscard]] static std::optional<JsonValue> parse(std::string_view src);

  /// Deepest array/object nesting parse() accepts. The parser recurses
  /// once per level, so without a bound one line of '[' exhausts the
  /// stack; the documents this repo writes nest at most a few levels.
  static constexpr int kMaxDepth = 64;
};

}  // namespace tinysdr::obs

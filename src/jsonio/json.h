// Minimal JSON: a value type, a strict parser, and a serializer. Used for
// exporting measurement runs as JSONL and reloading them for offline
// aggregation. No external dependencies; UTF-8 passed through verbatim.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace dnslocate::jsonio {

class Value;

using Array = std::vector<Value>;
/// std::map keeps key order deterministic for byte-stable output.
using Object = std::map<std::string, Value>;

/// A JSON value.
class Value {
 public:
  Value() : storage_(nullptr) {}
  Value(std::nullptr_t) : storage_(nullptr) {}          // NOLINT
  Value(bool b) : storage_(b) {}                        // NOLINT
  Value(double d) : storage_(d) {}                      // NOLINT
  Value(int i) : storage_(static_cast<double>(i)) {}    // NOLINT
  Value(std::int64_t i) : storage_(static_cast<double>(i)) {}  // NOLINT
  Value(std::uint64_t u) : storage_(static_cast<double>(u)) {} // NOLINT
  Value(const char* s) : storage_(std::string(s)) {}    // NOLINT
  Value(std::string s) : storage_(std::move(s)) {}      // NOLINT
  Value(std::string_view s) : storage_(std::string(s)) {}  // NOLINT
  Value(Array a) : storage_(std::move(a)) {}            // NOLINT
  Value(Object o) : storage_(std::move(o)) {}           // NOLINT

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(storage_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(storage_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(storage_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(storage_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(storage_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(storage_); }

  [[nodiscard]] bool as_bool(bool fallback = false) const {
    const bool* b = std::get_if<bool>(&storage_);
    return b ? *b : fallback;
  }
  [[nodiscard]] double as_number(double fallback = 0) const {
    const double* d = std::get_if<double>(&storage_);
    return d ? *d : fallback;
  }
  /// Truncates toward zero; `fallback` for non-numbers and for numbers
  /// outside int64's range (where the cast would be undefined).
  [[nodiscard]] std::int64_t as_int(std::int64_t fallback = 0) const {
    const double* d = std::get_if<double>(&storage_);
    return d && std::abs(*d) < 9.2e18 ? static_cast<std::int64_t>(*d) : fallback;
  }
  /// The number as an exact `Int`: nullopt unless it is a number with no
  /// fractional part, inside Int's range, and at most 2^53 in magnitude
  /// (past that a double no longer holds every integer). The checked way to
  /// read a count or an id from untrusted JSON.
  template <class Int>
  [[nodiscard]] std::optional<Int> as_integral() const {
    const double* d = std::get_if<double>(&storage_);
    if (d == nullptr || std::trunc(*d) != *d || std::abs(*d) > 9007199254740992.0 ||
        *d < static_cast<double>(std::numeric_limits<Int>::min()) ||
        *d > static_cast<double>(std::numeric_limits<Int>::max()))
      return std::nullopt;
    return static_cast<Int>(*d);
  }
  [[nodiscard]] const std::string& as_string() const {
    static const std::string empty;
    const std::string* s = std::get_if<std::string>(&storage_);
    return s ? *s : empty;
  }
  [[nodiscard]] const Array& as_array() const {
    static const Array empty;
    const Array* a = std::get_if<Array>(&storage_);
    return a ? *a : empty;
  }
  [[nodiscard]] const Object& as_object() const {
    static const Object empty;
    const Object* o = std::get_if<Object>(&storage_);
    return o ? *o : empty;
  }

  /// Object member access; null Value for missing keys / non-objects.
  [[nodiscard]] const Value& operator[](const std::string& key) const;

  /// Compact serialization (no whitespace), deterministic member order.
  [[nodiscard]] std::string dump() const;

  friend bool operator==(const Value&, const Value&) = default;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> storage_;
};

/// Escape a string into a JSON string literal (with quotes).
std::string escape(std::string_view text);

/// Parse errors carry the byte offset of the problem plus enough context
/// (line, column, a snippet of the surrounding text) that an API layer can
/// point the caller at the offending field instead of saying "parse error".
struct ParseError {
  std::size_t offset = 0;
  std::size_t line = 1;    // 1-based line containing `offset`
  std::size_t column = 1;  // 1-based byte column within that line
  std::string message;
  /// Up to ~48 bytes of the document around the offset, whitespace folded,
  /// with `-->` marking the failure position and ellipses where clipped.
  std::string context;
};

/// One-line rendering: "line 2, column 9 (byte 14): expected ':' near
/// `{"probes" -->,}`". Stable enough to surface in API error bodies.
std::string describe(const ParseError& error);

/// Strict parse of a complete JSON document (trailing whitespace allowed).
/// On failure `error` (when given) carries offset, line/column, and context.
std::optional<Value> parse(std::string_view text, ParseError* error = nullptr);

}  // namespace dnslocate::jsonio

// The one JSON format and whole-file I/O for every artifact the repo writes
// or reads (bench reports, Chrome traces, request traces, fault plans, the
// interp baseline). JsonWriter has one compact layout (no whitespace);
// integers are exact and doubles take their shortest round-trip text, so a
// written value parses back to the same bits. ParseJson is strict RFC 8259
// and keeps each number's source text, which Get converts with
// std::from_chars, so 64-bit integers read back exactly.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "support/status.h"

namespace capellini {

/// Builds one JSON document. Calls follow the document's nesting (an object
/// takes Key + value pairs); the writer places every separator.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Bool(bool value);
  /// Non-finite values, which JSON cannot hold, are written as null.
  JsonWriter& Double(double value);
  /// A checksum: a string of 16 lowercase hex digits.
  JsonWriter& Hex(std::uint64_t value);
  template <std::integral T>
  JsonWriter& Int(T value) {
    Separate();
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof buf, value).ptr;
    out_.append(buf, static_cast<std::size_t>(end - buf));
    return *this;
  }
  /// Appends the values another writer holds at its top level, in order.
  JsonWriter& Splice(const JsonWriter& values);

  const std::string& str() const& { return out_; }
  std::string str() && { return std::move(out_); }

 private:
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  /// Writes the comma owed before a value; the next value owes one.
  void Separate();

  std::string out_;
  bool comma_ = false;
};

/// One parsed value. Scalars keep their text: a string's unescaped bytes, a
/// number's source text, or "true", "false" and "null".
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  std::string text;
  /// Array elements, or object member values in document order.
  std::vector<JsonValue> items;
  /// Object member names, parallel to `items`.
  std::vector<std::string> keys;

  /// The member named `key` (the last one if repeated), or nullptr.
  const JsonValue* Find(std::string_view key) const;

  /// Reads a number into `out`. False, leaving `out` as it was, unless this
  /// is a number whose whole text converts to a T in range (an integer T
  /// takes no fraction or exponent).
  template <typename T>
  bool Get(T& out) const {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (kind != Kind::kNumber || ec != std::errc() || ptr != end) return false;
    out = value;
    return true;
  }
};

/// Parses one document. Errors (kInvalidArgument) name the byte offset.
Expected<JsonValue> ParseJson(std::string_view text);

/// The whole file: kNotFound when `path` does not exist, kIoError on any
/// other failure.
Expected<std::string> ReadFile(const std::string& path);

/// ReadFile + ParseJson; a parse error names `path`.
Expected<JsonValue> ReadJsonFile(const std::string& path);

/// Creates or replaces `path` with `bytes`, checking the open, the write and
/// the close.
Status WriteFile(const std::string& path, std::string_view bytes);

}  // namespace capellini

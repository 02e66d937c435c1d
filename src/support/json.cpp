#include "support/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace capellini {
namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Expected<JsonValue> Document() {
    JsonValue value;
    CAPELLINI_RETURN_IF_ERROR(Value(value, 0));
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing text after the value");
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return InvalidArgument("JSON byte " + std::to_string(pos_) + ": " + what);
  }
  bool At(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  bool AtDigit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }
  void SkipSpace() {
    while (At(' ') || At('\t') || At('\n') || At('\r')) ++pos_;
  }
  /// Skips whitespace, then `c` if it is next.
  bool Consume(char c) {
    SkipSpace();
    return At(c) ? (++pos_, true) : false;
  }
  bool Digits() {
    const std::size_t begin = pos_;
    while (AtDigit()) ++pos_;
    return pos_ > begin;
  }

  Status Value(JsonValue& out, int depth) {
    SkipSpace();
    if (At('{') || At('[')) {
      if (depth == kMaxDepth) {
        return Error("nesting deeper than " + std::to_string(kMaxDepth));
      }
      const bool object = At('{');
      const char close = object ? '}' : ']';
      ++pos_;
      out.kind = object ? JsonValue::Kind::kObject : JsonValue::Kind::kArray;
      if (Consume(close)) return Status::Ok();
      do {
        if (object) {
          SkipSpace();
          if (!At('"')) return Error("expected a member name");
          CAPELLINI_RETURN_IF_ERROR(String(out.keys.emplace_back()));
          if (!Consume(':')) return Error("expected ':'");
        }
        CAPELLINI_RETURN_IF_ERROR(Value(out.items.emplace_back(), depth + 1));
      } while (Consume(','));
      if (Consume(close)) return Status::Ok();
      return Error(std::string("expected ',' or '") + close + "'");
    }
    if (At('"')) {
      out.kind = JsonValue::Kind::kString;
      return String(out.text);
    }
    if (At('-') || AtDigit()) {
      out.kind = JsonValue::Kind::kNumber;
      return Number(out.text);
    }
    for (const std::string_view literal : {"true", "false", "null"}) {
      if (text_.substr(pos_, literal.size()) == literal) {
        out.kind = literal == "null" ? JsonValue::Kind::kNull
                                     : JsonValue::Kind::kBool;
        out.text = literal;
        pos_ += literal.size();
        return Status::Ok();
      }
    }
    return Error("expected a value");
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  Status Number(std::string& out) {
    const std::size_t begin = pos_;
    if (At('-')) ++pos_;
    bool ok = At('0') ? (++pos_, true) : Digits();
    if (ok && At('.')) ok = (++pos_, Digits());
    if (ok && (At('e') || At('E'))) {
      ++pos_;
      if (At('+') || At('-')) ++pos_;
      ok = Digits();
    }
    if (!ok) return Error("malformed number");
    out = text_.substr(begin, pos_ - begin);
    return Status::Ok();
  }

  Status String(std::string& out) {
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    ++pos_;  // the opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in a string");
      }
      if (c != '\\') {
        out += c;
      } else if (At('u')) {
        ++pos_;
        CAPELLINI_RETURN_IF_ERROR(CodePoint(out));
      } else if (pos_ < text_.size() &&
                 kEscapes.find(text_[pos_]) != std::string_view::npos) {
        out += kDecoded[kEscapes.find(text_[pos_++])];
      } else {
        return Error("bad escape in a string");
      }
    }
    return Error("unterminated string");
  }

  /// The hex digits of a \u escape, joining a surrogate pair, as UTF-8.
  Status CodePoint(std::string& out) {
    const auto hex4 = [this](std::uint32_t& code) {
      const std::string_view digits = text_.substr(pos_, 4);
      const char* end = digits.data() + digits.size();
      const auto [ptr, ec] = std::from_chars(digits.data(), end, code, 16);
      pos_ += digits.size();
      return digits.size() == 4 && ec == std::errc() && ptr == end;
    };
    std::uint32_t code = 0;
    std::uint32_t low = 0;
    if (!hex4(code)) return Error("bad \\u escape");
    if (code >= 0xD800 && code <= 0xDBFF) {
      if (text_.substr(pos_, 2) != "\\u") return Error("unpaired surrogate");
      pos_ += 2;
      if (!hex4(low) || low < 0xDC00 || low > 0xDFFF) {
        return Error("unpaired surrogate");
      }
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      return Error("unpaired surrogate");
    }
    // A lead byte, then six payload bits per continuation byte.
    const int tail =
        code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
    static constexpr unsigned char kLead[] = {0, 0xC0, 0xE0, 0xF0};
    out += static_cast<char>(kLead[tail] | (code >> (6 * tail)));
    for (int shift = 6 * (tail - 1); shift >= 0; shift -= 6) {
      out += static_cast<char>(0x80 | ((code >> shift) & 0x3F));
    }
    return Status::Ok();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

void JsonWriter::Separate() {
  if (comma_) out_ += ',';
  comma_ = true;
}

JsonWriter& JsonWriter::Open(char bracket) {
  Separate();
  out_ += bracket;
  comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  out_ += bracket;
  comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  String(key);
  out_ += ':';
  comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  static constexpr char kHex[] = "0123456789abcdef";
  Separate();
  out_ += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out_ += "\\u00";
      out_ += kHex[c >> 4];
      out_ += kHex[c & 0xF];
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  Separate();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  const char* end = std::to_chars(buf, buf + sizeof buf, value).ptr;
  const std::string_view text(buf, static_cast<std::size_t>(end - buf));
  out_ += text;
  // Integral values print as "2"; keep them floats for readers that type a
  // number by its text (Python's json).
  if (text.find_first_of(".e") == std::string_view::npos) out_ += ".0";
  return *this;
}

JsonWriter& JsonWriter::Hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return String(buf);
}

JsonWriter& JsonWriter::Splice(const JsonWriter& values) {
  if (values.out_.empty()) return *this;
  Separate();
  out_ += values.out_;
  return *this;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (std::size_t i = keys.size(); i-- > 0;) {
    if (keys[i] == key) return &items[i];
  }
  return nullptr;
}

Expected<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Document();
}

Expected<std::string> ReadFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (errno == ENOENT) return NotFound("no file at '" + path + "'");
    return IoError("cannot open '" + path + "': " + std::strerror(errno));
  }
  std::string bytes;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, file)) > 0) {
    bytes.append(buf, got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return IoError("cannot read '" + path + "'");
  return bytes;
}

Expected<JsonValue> ReadJsonFile(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  auto value = ParseJson(*text);
  if (value.ok()) return value;
  return Status(value.status().code(), path + ": " + value.status().message());
}

Status WriteFile(const std::string& path, std::string_view bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return IoError("cannot open '" + path + "' for writing: " +
                   std::strerror(errno));
  }
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  // fclose flushes the buffer, so a full disk often shows up only here.
  const bool closed = std::fclose(file) == 0;
  if (!written || !closed) return IoError("cannot write '" + path + "'");
  return Status::Ok();
}

}  // namespace capellini

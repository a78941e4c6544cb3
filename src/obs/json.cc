#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.h"

namespace bwtk::obs {

// --- JsonWriter ----------------------------------------------------------

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (stack_.empty()) return;
  BWTK_DCHECK(stack_.back().first == 'a') << "object member without Key()";
  if (stack_.back().second) out_.push_back(',');
  stack_.back().second = true;
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  stack_.emplace_back('o', false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  BWTK_DCHECK(!stack_.empty() && stack_.back().first == 'o');
  stack_.pop_back();
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  stack_.emplace_back('a', false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  BWTK_DCHECK(!stack_.empty() && stack_.back().first == 'a');
  stack_.pop_back();
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view name) {
  BWTK_DCHECK(!stack_.empty() && stack_.back().first == 'o' && !after_key_);
  if (stack_.back().second) out_.push_back(',');
  stack_.back().second = true;
  out_.push_back('"');
  out_ += JsonEscape(name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view value) {
  BeforeValue();
  out_.push_back('"');
  out_ += JsonEscape(value);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Value(double value) {
  if (!std::isfinite(value)) return Null();
  BeforeValue();
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out_ += buffer;
  return *this;
}

JsonWriter& JsonWriter::Value(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

std::string JsonWriter::TakeString() && {
  BWTK_DCHECK(stack_.empty()) << "unclosed JSON container";
  return std::move(out_);
}

std::string JsonEscape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// --- Generic parser ------------------------------------------------------

namespace {

// Recursive-descent reader over `json`, tracking a byte cursor. Errors carry
// the offset so a bad scrape response is diagnosable from the message alone.
class JsonReader {
 public:
  explicit JsonReader(std::string_view json) : json_(json) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    Status status = ParseValue(&value, /*depth=*/0);
    if (!status.ok()) return status;
    Skip();
    if (pos_ != json_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::Corruption(what + " at offset " + std::to_string(pos_));
  }

  void Skip() {
    while (pos_ < json_.size() &&
           std::isspace(static_cast<unsigned char>(json_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(std::string_view literal) {
    if (json_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("JSON nesting too deep");
    Skip();
    if (pos_ >= json_.size()) return Error("unexpected end of document");
    switch (json_[pos_]) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string_value);
      case 't':
        if (!Consume("true")) return Error("invalid literal");
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = true;
        return Status::OK();
      case 'f':
        if (!Consume("false")) return Error("invalid literal");
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = false;
        return Status::OK();
      case 'n':
        if (!Consume("null")) return Error("invalid literal");
        out->kind = JsonValue::Kind::kNull;
        return Status::OK();
      default: return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    Skip();
    if (pos_ < json_.size() && json_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      Skip();
      if (pos_ >= json_.size() || json_[pos_] != '"') {
        return Error("expected '\"' to open an object key");
      }
      std::string key;
      Status status = ParseString(&key);
      if (!status.ok()) return status;
      Skip();
      if (pos_ >= json_.size() || json_[pos_] != ':') {
        return Error("expected ':' after object key");
      }
      ++pos_;
      JsonValue value;
      status = ParseValue(&value, depth + 1);
      if (!status.ok()) return status;
      out->members.emplace_back(std::move(key), std::move(value));
      Skip();
      if (pos_ >= json_.size()) return Error("unterminated object");
      if (json_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (json_[pos_] == '}') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    Skip();
    if (pos_ < json_.size() && json_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      JsonValue element;
      Status status = ParseValue(&element, depth + 1);
      if (!status.ok()) return status;
      out->array.push_back(std::move(element));
      Skip();
      if (pos_ >= json_.size()) return Error("unterminated array");
      if (json_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (json_[pos_] == ']') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  // Appends one UTF-8 encoded code point.
  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  // Reads 4 hex digits; returns false on malformed input.
  bool ReadHex4(uint32_t* out) {
    if (pos_ + 4 > json_.size()) return false;
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = json_[pos_ + static_cast<size_t>(i)];
      uint32_t digit;
      if (c >= '0' && c <= '9') digit = static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') digit = static_cast<uint32_t>(c - 'a') + 10;
      else if (c >= 'A' && c <= 'F') digit = static_cast<uint32_t>(c - 'A') + 10;
      else return false;
      value = (value << 4) | digit;
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    for (;;) {
      if (pos_ >= json_.size()) return Error("unterminated string");
      const char c = json_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= json_.size()) return Error("unterminated escape");
      const char esc = json_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t cp;
          if (!ReadHex4(&cp)) return Error("invalid \\u escape");
          if (cp >= 0xD800 && cp < 0xDC00) {  // high surrogate: need a pair
            if (pos_ + 1 < json_.size() && json_[pos_] == '\\' &&
                json_[pos_ + 1] == 'u') {
              pos_ += 2;
              uint32_t low;
              if (!ReadHex4(&low) || low < 0xDC00 || low > 0xDFFF) {
                return Error("invalid low surrogate");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else {
              return Error("unpaired high surrogate");
            }
          } else if (cp >= 0xDC00 && cp < 0xE000) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default: return Error("invalid escape character");
      }
    }
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    bool negative = false;
    if (pos_ < json_.size() && json_[pos_] == '-') {
      negative = true;
      ++pos_;
    }
    if (pos_ >= json_.size() ||
        !std::isdigit(static_cast<unsigned char>(json_[pos_]))) {
      return Error("invalid number");
    }
    uint64_t integral = 0;
    bool integral_overflow = false;
    while (pos_ < json_.size() &&
           std::isdigit(static_cast<unsigned char>(json_[pos_]))) {
      const uint64_t digit = static_cast<uint64_t>(json_[pos_] - '0');
      if (integral > (~uint64_t{0} - digit) / 10) {
        integral_overflow = true;
      } else {
        integral = integral * 10 + digit;
      }
      ++pos_;
    }
    bool fractional = false;
    if (pos_ < json_.size() && json_[pos_] == '.') {
      fractional = true;
      ++pos_;
      if (pos_ >= json_.size() ||
          !std::isdigit(static_cast<unsigned char>(json_[pos_]))) {
        return Error("digits required after decimal point");
      }
      while (pos_ < json_.size() &&
             std::isdigit(static_cast<unsigned char>(json_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < json_.size() && (json_[pos_] == 'e' || json_[pos_] == 'E')) {
      fractional = true;
      ++pos_;
      if (pos_ < json_.size() && (json_[pos_] == '+' || json_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= json_.size() ||
          !std::isdigit(static_cast<unsigned char>(json_[pos_]))) {
        return Error("digits required in exponent");
      }
      while (pos_ < json_.size() &&
             std::isdigit(static_cast<unsigned char>(json_[pos_]))) {
        ++pos_;
      }
    }
    out->kind = JsonValue::Kind::kNumber;
    const std::string text(json_.substr(start, pos_ - start));
    out->number = std::strtod(text.c_str(), nullptr);
    if (!negative && !fractional && !integral_overflow) {
      out->is_uint = true;
      out->uint_value = integral;
    }
    return Status::OK();
  }

  std::string_view json_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<JsonValue> ParseJson(std::string_view json) {
  return JsonReader(json).Parse();
}

}  // namespace bwtk::obs

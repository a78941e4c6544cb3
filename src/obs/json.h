// Minimal JSON emission (and a small reader) for the observability
// subsystem. Dependency-free by design: the container bakes in
// no JSON library, and the bench reports only need objects, arrays, strings,
// and numbers.

#ifndef BWTK_OBS_JSON_H_
#define BWTK_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace bwtk::obs {

/// Streaming JSON writer with automatic comma/nesting management.
///
/// Usage:
///   JsonWriter w;
///   w.BeginObject().Key("runs").BeginArray().Value(1).EndArray().EndObject();
///   std::string json = std::move(w).TakeString();
///
/// Emits compact (no-whitespace) JSON. Misuse (e.g. a Key at array level) is
/// a programming error and trips a BWTK_DCHECK; the writer performs no
/// runtime validation beyond that.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits the member name for the next Value/Begin* inside an object.
  JsonWriter& Key(std::string_view name);

  JsonWriter& Value(std::string_view value);
  JsonWriter& Value(const char* value) {
    return Value(std::string_view(value));
  }
  JsonWriter& Value(uint64_t value);
  JsonWriter& Value(int64_t value);
  JsonWriter& Value(int value) { return Value(static_cast<int64_t>(value)); }
  JsonWriter& Value(unsigned value) {
    return Value(static_cast<uint64_t>(value));
  }
  /// Doubles print with up-to-round-trip precision; non-finite values (not
  /// representable in JSON) are emitted as null.
  JsonWriter& Value(double value);
  JsonWriter& Value(bool value);
  JsonWriter& Null();

  /// The finished document. All containers must be closed.
  std::string TakeString() &&;
  const std::string& str() const { return out_; }

 private:
  void BeforeValue();

  std::string out_;
  // One frame per open container: 'o' / 'a', plus whether a member was
  // already emitted (comma bookkeeping).
  std::vector<std::pair<char, bool>> stack_;
  bool after_key_ = false;
};

/// Escapes `raw` for inclusion inside a JSON string literal (no quotes).
std::string JsonEscape(std::string_view raw);

// --- Generic JSON values -------------------------------------------------
// A small recursive JSON reader for consumers of the telemetry documents
// this library emits (the /varz.json exposition endpoint, bench reports,
// the trace export):
// dependency-free like the writer above, tolerant of any well-formed JSON,
// and convenient for "walk down to one number" access patterns. Not a
// validating schema tool — tools/validate_*.py own that job.

/// One parsed JSON value. Objects preserve member order; lookups are
/// linear (telemetry documents are small).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  /// Numbers always fill `number`; integral values in uint64 range also
  /// set `is_uint` + `uint_value` so counters round-trip exactly.
  double number = 0.0;
  uint64_t uint_value = 0;
  bool is_uint = false;
  std::string string_value;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> members;

  /// Object member by key, or nullptr (also nullptr on non-objects).
  const JsonValue* Find(std::string_view key) const;

  /// Nested lookup: Get("windows", "10s", "seconds"). nullptr anywhere
  /// along the path yields nullptr.
  template <typename... Keys>
  const JsonValue* Get(std::string_view key, Keys... rest) const {
    const JsonValue* next = Find(key);
    if constexpr (sizeof...(rest) == 0) {
      return next;
    } else {
      return next == nullptr ? nullptr : next->Get(rest...);
    }
  }

  /// Loose numeric accessors with fallbacks (telemetry consumers prefer a
  /// zero to an exception when a field is absent in an older server).
  double AsNumber(double fallback = 0.0) const {
    return kind == Kind::kNumber ? number : fallback;
  }
  uint64_t AsUint(uint64_t fallback = 0) const {
    return kind == Kind::kNumber && is_uint ? uint_value
           : kind == Kind::kNumber ? static_cast<uint64_t>(number)
                                   : fallback;
  }
};

/// Parses one JSON document (object, array, or scalar; surrounding
/// whitespace allowed, trailing garbage rejected). kCorruption on any
/// syntax error or nesting deeper than an internal cap.
Result<JsonValue> ParseJson(std::string_view json);

}  // namespace bwtk::obs

#endif  // BWTK_OBS_JSON_H_

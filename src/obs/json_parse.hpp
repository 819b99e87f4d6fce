// Minimal JSON parser — the read-side counterpart of JsonWriter.
//
// Parses one complete document into a JsonValue tree (null / bool / number
// / string / array / object).  Object member order is preserved.  Strict
// where it matters for round-tripping our own output (UTF-8 passthrough,
// \uXXXX escapes, numbers via strtod) and deliberately small: no comments,
// no trailing commas, no streaming.  Errors carry the byte offset of the
// failure.  Used by bench_trend and the profiler/report tests to consume
// BENCH_*.json, BENCH_SUITE.json and chrome-trace documents.
#pragma once

#include <cstddef>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hyperpath::obs {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Members in document order.
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;  // null
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(Array a);
  static JsonValue make_object(Object o);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  const JsonValue* find(std::string_view key) const;
  /// Chained lookup: find("a", "b") == find("a")->find("b").
  template <typename... Keys>
  const JsonValue* find(std::string_view key, Keys... rest) const {
    const JsonValue* v = find(key);
    return v ? v->find(rest...) : nullptr;
  }

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

struct JsonParseError {
  std::size_t offset = 0;
  std::string message;
};

/// Parses a complete document (surrounding whitespace allowed).  Returns
/// nullopt and fills `error` (if given) on malformed input.
std::optional<JsonValue> json_parse(std::string_view text,
                                    JsonParseError* error = nullptr);

/// Reads and parses a whole file; nullopt on I/O or parse failure.
std::optional<JsonValue> json_parse_file(const std::string& path,
                                         JsonParseError* error = nullptr);

/// Streaming JSONL (one JSON document per line) reader.  Iterates records
/// without buffering the whole file — trace files reach hundreds of MB —
/// holding only the current line in memory.  Blank lines are skipped;
/// trailing data after the document on a line is a parse error.  Errors
/// carry the 1-based line number of the offending line.
class JsonlReader {
 public:
  explicit JsonlReader(const std::string& path);
  JsonlReader(const JsonlReader&) = delete;
  JsonlReader& operator=(const JsonlReader&) = delete;
  ~JsonlReader();

  /// False when the file could not be opened (error() says why).
  bool ok() const { return file_ != nullptr && error_.message.empty(); }

  /// Parses the next non-blank line into `out`.  Returns false at
  /// end-of-file or on a malformed line; the two are distinguished by
  /// failed(): a parse failure sets error() (with line()) and poisons the
  /// reader, clean EOF does not.
  bool next(JsonValue* out);

  /// 1-based number of the line most recently returned by next() (or, after
  /// a failure, of the malformed line).
  std::size_t line() const { return line_; }
  bool failed() const { return !error_.message.empty(); }
  const JsonParseError& error() const { return error_; }

 private:
  std::FILE* file_ = nullptr;
  std::string buf_;
  std::size_t line_ = 0;
  JsonParseError error_;
};

}  // namespace hyperpath::obs

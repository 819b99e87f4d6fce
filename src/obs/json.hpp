// Minimal streaming JSON writer used by the observability layer.
//
// Produces compact, valid JSON with correct string escaping and no external
// dependencies.  The writer is deliberately tiny: objects/arrays are opened
// and closed explicitly, keys are emitted with key(), and scalar values with
// value().  Comma placement is handled automatically.  Misuse (e.g. a value
// where a key is required) is a programming error and trips HP_CHECK.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hyperpath::obs {

/// Escapes a string for inclusion inside JSON quotes (adds no quotes).
std::string json_escape(std::string_view s);

/// `v` as a JSON number ("%.17g", round-trips exactly); non-finite values
/// become null.
std::string json_number(double v);

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits an object key; must be inside an object and followed by a value
  /// or a begin_object()/begin_array().
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);

  /// Appends an already-encoded JSON fragment as one value (caller
  /// guarantees validity).  For callers that pre-encode heterogenous
  /// scalars.
  JsonWriter& raw_value(std::string_view json);

  /// Shorthand for key(k) followed by value(v).
  template <typename T>
  JsonWriter& field(std::string_view k, T v) {
    key(k);
    return value(v);
  }

  /// The finished document.  All scopes must be closed.
  const std::string& str() const;

 private:
  void comma();

  std::string out_;
  // One entry per open scope: true = object (expects keys), false = array.
  std::vector<bool> scopes_;
  // Whether the current scope already holds at least one element.
  std::vector<bool> nonempty_;
  bool after_key_ = false;
};

}  // namespace hyperpath::obs

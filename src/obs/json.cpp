#include "obs/json.hpp"

#include <cmath>
#include <cstdio>

#include "base/error.hpp"

namespace hyperpath::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        // DEL is escaped alongside the mandatory C0 range: valid either
        // way, but raw 0x7f confuses line-oriented consumers.  Multi-byte
        // UTF-8 (>= 0x80) passes through untouched.
        if (c < 0x20 || c == 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void JsonWriter::comma() {
  if (after_key_) {
    after_key_ = false;
    return;  // value directly follows its key; no separator
  }
  if (!scopes_.empty()) {
    if (nonempty_.back()) out_ += ',';
    nonempty_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  scopes_.push_back(true);
  nonempty_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  HP_CHECK(!scopes_.empty() && scopes_.back(), "end_object outside object");
  out_ += '}';
  scopes_.pop_back();
  nonempty_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  scopes_.push_back(false);
  nonempty_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  HP_CHECK(!scopes_.empty() && !scopes_.back(), "end_array outside array");
  out_ += ']';
  scopes_.pop_back();
  nonempty_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  HP_CHECK(!scopes_.empty() && scopes_.back(), "key outside object");
  HP_CHECK(!after_key_, "two keys in a row");
  comma();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
  return *this;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  out_ += json_number(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::raw_value(std::string_view json) {
  comma();
  out_ += json;
  return *this;
}

const std::string& JsonWriter::str() const {
  HP_CHECK(scopes_.empty(), "unclosed JSON scope");
  return out_;
}

}  // namespace hyperpath::obs

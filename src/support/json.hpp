// A minimal JSON value model and recursive-descent parser.
//
// The repo emits several JSON artifacts (metrics exports, bench result
// files, flight-recorder incidents) and increasingly needs to read them
// back — the bench_diff regression guard compares two bench JSONs, and
// tests assert that exported histograms and incident files survive a
// parse round trip. This is the one shared reader: a strict parser for
// the JSON subset the repo's writers produce (objects, arrays, strings
// with escapes, doubles, bools, null), with no external dependency.
//
// write_string is the matching writer's one string escaper, shared by
// every JSON emitter so that what they write parses back here.
//
// Not a general-purpose library: numbers are doubles (fine for counters
// below 2^53, which every emitter respects), object keys are unique, and
// parse() throws e2elu::Error with an offset on malformed input.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/check.hpp"

namespace e2elu::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default;
  Value(bool b) : kind_(Kind::Bool), bool_(b) {}
  Value(double d) : kind_(Kind::Number), num_(d) {}
  Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
  Value(Array a) : kind_(Kind::Array), arr_(std::move(a)) {}
  Value(Object o)
      : kind_(Kind::Object), obj_(std::make_shared<Object>(std::move(o))) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  bool as_bool() const {
    E2ELU_CHECK_MSG(is_bool(), "json: not a bool");
    return bool_;
  }
  double as_number() const {
    E2ELU_CHECK_MSG(is_number(), "json: not a number");
    return num_;
  }
  const std::string& as_string() const {
    E2ELU_CHECK_MSG(is_string(), "json: not a string");
    return str_;
  }
  const Array& as_array() const {
    E2ELU_CHECK_MSG(is_array(), "json: not an array");
    return arr_;
  }
  const Object& as_object() const {
    E2ELU_CHECK_MSG(is_object(), "json: not an object");
    return *obj_;
  }

  /// Object member access; throws when absent or not an object.
  const Value& at(const std::string& key) const;
  /// True when this is an object containing `key`.
  bool has(const std::string& key) const {
    return is_object() && obj_->count(key) > 0;
  }
  /// Object member or null when absent.
  const Value* find(const std::string& key) const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  Array arr_;
  /// shared_ptr keeps Value copyable while Object contains Values
  /// (incomplete-type recursion); parsed documents are read-only anyway.
  std::shared_ptr<Object> obj_;
};

/// Parses one complete JSON document; trailing non-whitespace is an
/// error. Throws e2elu::Error naming the byte offset on malformed input.
Value parse(const std::string& text);

/// Reads and parses a JSON file; throws e2elu::Error when the file cannot
/// be read or does not parse.
Value parse_file(const std::string& path);

/// Writes `s` as a quoted JSON string: `"`, `\`, newline, carriage
/// return and tab escaped by name, any other byte below 0x20 as \u00XX,
/// so one string never spans lines.
void write_string(std::ostream& os, std::string_view s);

}  // namespace e2elu::json

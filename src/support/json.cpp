#include "support/json.hpp"

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

namespace e2elu::json {

const Value& Value::at(const std::string& key) const {
  E2ELU_CHECK_MSG(is_object(), "json: at(\"" << key << "\") on a non-object");
  const auto it = obj_->find(key);
  E2ELU_CHECK_MSG(it != obj_->end(), "json: missing key \"" << key << "\"");
  return it->second;
}

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto it = obj_->find(key);
  return it == obj_->end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value run() {
    skip_ws();
    Value v = value();
    skip_ws();
    E2ELU_CHECK_MSG(pos_ == s_.size(),
                    "json: trailing garbage at offset " << pos_);
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw Error("json: " + std::string(what) + " at offset " +
                std::to_string(pos_));
  }

  Value value() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return Value(string());
      case 't': literal("true"); return Value(true);
      case 'f': literal("false"); return Value(false);
      case 'n': literal("null"); return Value();
      default: return Value(number());
    }
  }

  Value object() {
    ++pos_;  // '{'
    Object obj;
    skip_ws();
    if (peek() == '}') { ++pos_; return Value(std::move(obj)); }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      if (peek() != ':') fail("expected ':'");
      ++pos_;
      skip_ws();
      obj.emplace(std::move(key), value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return Value(std::move(obj)); }
      fail("expected ',' or '}'");
    }
  }

  Value array() {
    ++pos_;  // '['
    Array arr;
    skip_ws();
    if (peek() == ']') { ++pos_; return Value(std::move(arr)); }
    while (true) {
      skip_ws();
      arr.push_back(value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return Value(std::move(arr)); }
      fail("expected ',' or ']'");
    }
  }

  std::string string() {
    if (peek() != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The repo's writers only escape control characters; encode the
          // general case as UTF-8 anyway so foreign files parse.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  double number() {
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) fail("expected a value");
    pos_ += static_cast<std::size_t>(end - start);
    return v;
  }

  void literal(const char* lit) {
    for (; *lit != '\0'; ++lit) {
      if (pos_ >= s_.size() || s_[pos_] != *lit) fail("bad literal");
      ++pos_;
    }
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).run(); }

Value parse_file(const std::string& path) {
  std::ifstream is(path);
  E2ELU_CHECK_MSG(is.good(), "json: cannot read " << path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse(buf.str());
}

void write_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
             << "0123456789abcdef"[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace e2elu::json

// json.hpp — a small JSON reader for rina_bench_compare and the tests:
// run outputs (one object per line) and BENCHMARK.json. Input comes from
// files, so malformed text is rejected (nullopt), never trusted.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rina::bench {

struct Json {
  enum class Type { null, boolean, number, string, array, object };
  Type type = Type::null;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Json> items;                            // array
  std::vector<std::pair<std::string, Json>> fields;  // object, in order

  [[nodiscard]] const Json* get(std::string_view key) const {
    if (type != Type::object) return nullptr;
    for (const auto& [k, v] : fields)
      if (k == key) return &v;
    return nullptr;
  }
  [[nodiscard]] bool is(Type t) const { return type == t; }
};

class JsonParser {
 public:
  static std::optional<Json> parse(std::string_view text) {
    JsonParser p(text);
    Json v;
    if (!p.value(v, 0)) return std::nullopt;
    p.ws();
    if (p.i_ != text.size()) return std::nullopt;
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  explicit JsonParser(std::string_view t) : t_(t) {}

  void ws() {
    while (i_ < t_.size() && (t_[i_] == ' ' || t_[i_] == '\t' || t_[i_] == '\n' || t_[i_] == '\r'))
      ++i_;
  }
  bool lit(std::string_view word) {
    if (t_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }

  bool value(Json& v, int depth) {
    if (depth > kMaxDepth) return false;
    ws();
    if (i_ >= t_.size()) return false;
    char c = t_[i_];
    if (c == '{') return object(v, depth);
    if (c == '[') return array(v, depth);
    if (c == '"') {
      v.type = Json::Type::string;
      return string(v.str);
    }
    if (lit("true")) {
      v.type = Json::Type::boolean;
      v.boolean = true;
      return true;
    }
    if (lit("false")) {
      v.type = Json::Type::boolean;
      return true;
    }
    if (lit("null")) return true;
    return number(v);
  }

  bool object(Json& v, int depth) {
    v.type = Json::Type::object;
    ++i_;
    ws();
    if (i_ < t_.size() && t_[i_] == '}') return ++i_, true;
    for (;;) {
      ws();
      std::string key;
      if (i_ >= t_.size() || t_[i_] != '"' || !string(key)) return false;
      ws();
      if (i_ >= t_.size() || t_[i_] != ':') return false;
      ++i_;
      Json item;
      if (!value(item, depth + 1)) return false;
      v.fields.emplace_back(std::move(key), std::move(item));
      ws();
      if (i_ >= t_.size()) return false;
      if (t_[i_] == '}') return ++i_, true;
      if (t_[i_] != ',') return false;
      ++i_;
    }
  }

  bool array(Json& v, int depth) {
    v.type = Json::Type::array;
    ++i_;
    ws();
    if (i_ < t_.size() && t_[i_] == ']') return ++i_, true;
    for (;;) {
      Json item;
      if (!value(item, depth + 1)) return false;
      v.items.push_back(std::move(item));
      ws();
      if (i_ >= t_.size()) return false;
      if (t_[i_] == ']') return ++i_, true;
      if (t_[i_] != ',') return false;
      ++i_;
    }
  }

  bool string(std::string& out) {
    ++i_;  // opening quote
    while (i_ < t_.size()) {
      char c = t_[i_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= t_.size()) return false;
      char e = t_[i_++];
      switch (e) {
        case '"': case '\\': case '/': out += e; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (i_ + 4 > t_.size()) return false;
          unsigned cp = 0;
          for (int k = 0; k < 4; ++k) {
            char h = t_[i_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // Basic-plane code points as UTF-8; surrogates are kept as-is.
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool number(Json& v) {
    std::size_t start = i_;
    if (i_ < t_.size() && t_[i_] == '-') ++i_;
    std::size_t digits = i_;
    while (i_ < t_.size() && t_[i_] >= '0' && t_[i_] <= '9') ++i_;
    if (i_ == digits) return false;
    if (i_ < t_.size() && t_[i_] == '.') {
      ++i_;
      std::size_t frac = i_;
      while (i_ < t_.size() && t_[i_] >= '0' && t_[i_] <= '9') ++i_;
      if (i_ == frac) return false;
    }
    if (i_ < t_.size() && (t_[i_] == 'e' || t_[i_] == 'E')) {
      ++i_;
      if (i_ < t_.size() && (t_[i_] == '+' || t_[i_] == '-')) ++i_;
      std::size_t exp = i_;
      while (i_ < t_.size() && t_[i_] >= '0' && t_[i_] <= '9') ++i_;
      if (i_ == exp) return false;
    }
    std::string num(t_.substr(start, i_ - start));
    v.type = Json::Type::number;
    v.number = std::strtod(num.c_str(), nullptr);
    return true;
  }

  std::string_view t_;
  std::size_t i_ = 0;
};

}  // namespace rina::bench

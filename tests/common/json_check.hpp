// JSON validation shared by the export tests (hqrun --trace, --metrics,
// Chrome-trace counters, the hqserve exports): a strict recursive-descent
// check of the RFC 8259 grammar, so a document passes only if a JSON
// parser would accept it. It catches the classic emitter bugs (unescaped
// quotes, dangling or missing commas, bare nan/inf) without pulling a JSON
// parser into the test deps.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace hq::testing {
namespace json_detail {

class Validator {
 public:
  explicit Validator(std::string_view text) : text_(text) {}

  bool document() {
    if (!value()) return false;
    skip_space();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    skip_space();
    if (pos_ == text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_space();
    if (eat('}')) return true;
    do {
      skip_space();
      if (pos_ == text_.size() || text_[pos_] != '"' || !string()) {
        return false;
      }
      skip_space();
      if (!eat(':') || !value()) return false;
      skip_space();
    } while (eat(','));
    return eat('}');
  }

  bool array() {
    ++pos_;  // '['
    skip_space();
    if (eat(']')) return true;
    do {
      if (!value()) return false;
      skip_space();
    } while (eat(','));
    return eat(']');
  }

  bool string() {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const auto c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c != '\\') continue;
      if (pos_ == text_.size()) return false;
      const char e = text_[pos_++];
      if (e == 'u') {
        for (int i = 0; i < 4; ++i) {
          if (pos_ == text_.size() || !is_hex(text_[pos_++])) return false;
        }
      } else if (std::string_view("\"\\/bfnrt").find(e) ==
                 std::string_view::npos) {
        return false;
      }
    }
    return false;
  }

  bool number() {
    eat('-');
    if (eat('0')) {
      // no leading zeros
    } else if (!digits()) {
      return false;
    }
    if (eat('.') && !digits()) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    return true;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ != start;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  static bool is_hex(char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
           (c >= 'A' && c <= 'F');
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace json_detail

inline bool json_well_formed(const std::string& text) {
  return json_detail::Validator(text).document();
}

}  // namespace hq::testing

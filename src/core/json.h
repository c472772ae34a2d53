// The one JSON writer every document goes through: tflux_run --json,
// tflux_serve --json, tflux_lint --json, the simulators' Chrome span
// traces (sim/trace.h) and the bench binaries' --json rows
// (bench/json_out.h). Header-only so every library can use it.
#pragma once

#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.h"

namespace tflux::core {

/// `text` escaped for the inside of a JSON string literal: quote and
/// backslash are backslash-escaped, newline and tab use their short
/// forms, and every other control character becomes \u00XX.
inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char ch : text) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

/// Streaming JSON document builder: objects and arrays are opened and
/// closed explicitly; field() writes `"key": value` into the open
/// object and value() one element into the open array. Integers are
/// written exactly, doubles as %.17g, non-finite doubles as null.
/// kPretty puts each member of the containers at depth 0 and 1 on its
/// own line (two-space indent) and writes deeper ones inline, so a bench
/// row is one line, and ends the document with a newline; kLine writes
/// the document on one line.
class JsonWriter {
 public:
  enum class Layout : std::uint8_t { kPretty, kLine };

  explicit JsonWriter(Layout layout = Layout::kPretty) : layout_(layout) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& begin_object(std::string_view key) {
    return this->key(key).open('{');
  }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array(std::string_view key) {
    return this->key(key).open('[');
  }
  JsonWriter& end_array() { return close(']'); }

  template <typename T>
  JsonWriter& field(std::string_view key, const T& value) {
    return this->key(key).value(value);
  }

  JsonWriter& value(std::string_view text) {
    return raw("\"" + json_escape(text) + "\"");
  }
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(bool flag) { return raw(flag ? "true" : "false"); }
  JsonWriter& value(std::nullptr_t) { return raw("null"); }
  JsonWriter& value(double number) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", number);
    return raw(std::isfinite(number) ? buf : "null");
  }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& value(T number) {
    return raw(std::to_string(number));
  }

  const std::string& str() const { return out_; }

 private:
  struct Frame {
    bool broken;  ///< one member per line
    std::size_t members;
  };

  JsonWriter& key(std::string_view key) {
    raw("\"" + json_escape(key) + "\": ");
    keyed_ = true;
    return *this;
  }

  /// Append `text` as the next member of the open container, after its
  /// separator and indentation (none for the value that follows a key).
  JsonWriter& raw(const std::string& text) {
    if (keyed_) {
      keyed_ = false;
    } else if (!stack_.empty()) {
      Frame& frame = stack_.back();
      if (frame.members++ > 0) out_ += frame.broken ? "," : ", ";
      if (frame.broken) newline();
    }
    out_ += text;
    return *this;
  }

  void newline() {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }

  JsonWriter& open(char bracket) {
    raw(std::string(1, bracket));
    stack_.push_back(Frame{layout_ == Layout::kPretty && stack_.size() < 2, 0});
    return *this;
  }

  JsonWriter& close(char bracket) {
    const bool broken = stack_.back().broken;
    stack_.pop_back();
    if (broken) newline();
    out_ += bracket;
    if (stack_.empty() && layout_ == Layout::kPretty) out_ += '\n';
    return *this;
  }

  Layout layout_;
  std::string out_;
  std::vector<Frame> stack_;
  bool keyed_ = false;
};

/// Replace the file at `path` with `text`. Throws TFluxError naming the
/// path when it cannot be written, so no caller reports a missing file.
inline void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text << std::flush;
  if (!out) throw TFluxError("cannot write '" + path + "'");
}

}  // namespace tflux::core

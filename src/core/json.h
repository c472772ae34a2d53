// The one JSON string escaper every emitter uses: tflux_run --json,
// tflux_serve --json, tflux_lint --json, the simulators' Chrome span
// traces (sim/trace.h) and the bench binaries' --json rows
// (bench/json_out.h). Header-only so every library can use it.
#pragma once

#include <cstdio>
#include <string>

namespace tflux::core {

/// `text` escaped for the inside of a JSON string literal: quote and
/// backslash are backslash-escaped, newline and tab use their short
/// forms, and every other control character becomes \u00XX.
inline std::string json_escape(const std::string& text) {
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

}  // namespace tflux::core

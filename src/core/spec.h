// Shared helpers for parsing the small `key` / `key:value` spec
// strings the CLIs accept (`--guard=sampled:8`, `--mutate=drop-
// retire-guard`, `--max-states=50000`). Both core::parse_guard_spec
// and the tflux_model CLI parse the same shapes; one strict helper
// keeps the edge cases (empty digits, non-digits, overflow, a zero
// where zero is meaningless) rejected identically everywhere instead
// of each call site growing its own digit loop.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

#include "core/error.h"

namespace tflux::core {

/// Parse `text` as an unsigned decimal integer. Strict: the whole
/// string must be digits, must be non-empty, and the value must not
/// exceed `max`. When `min_one` is set, 0 is rejected too (for specs
/// like a sampling period where 0 would mean divide-by-zero at the
/// first sample point). Returns false (out untouched) on any
/// violation - callers turn that into their own diagnostic.
bool parse_spec_uint(const std::string& text, std::uint64_t max,
                     bool min_one, std::uint64_t& out);

/// Command-line form of parse_spec_uint: parse `value`, the text after
/// `flag`=, into `out`, bounded by the range of T (and >= 1 with
/// `min_one`). Throws TFluxError naming `tool` and `flag` on any
/// violation, so a value the destination cannot hold is rejected
/// instead of wrapped.
template <typename T>
void parse_flag_uint(const std::string& tool, const std::string& flag,
                     const std::string& value, bool min_one, T& out) {
  static_assert(std::is_unsigned_v<T>, "parse_flag_uint fills unsigned fields");
  const std::uint64_t max = std::numeric_limits<T>::max();
  std::uint64_t parsed = 0;
  if (!parse_spec_uint(value, max, min_one, parsed)) {
    throw TFluxError(tool + ": " + flag + " expects an integer in [" +
                     (min_one ? "1" : "0") + ", " + std::to_string(max) +
                     "], got '" + value + "'");
  }
  out = static_cast<T>(parsed);
}

/// Split a `key:value` spec at the first ':'. Returns false when
/// `spec` has no ':'; `key`/`value` are only written on success (an
/// empty value after the ':' is returned as such - the caller's value
/// parser decides whether that is legal).
bool split_spec(const std::string& spec, std::string& key,
                std::string& value);

}  // namespace tflux::core

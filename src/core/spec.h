// Shared helpers for parsing the small `key` / `key:value` spec
// strings the CLIs accept (`--guard=sampled:8`, `--max-states=50000`).
// core::parse_guard_spec and every integer flag of the tools
// (tools/flags.h) parse digits through the same strict helper, so the
// edge cases (empty digits, non-digits, overflow, a zero where zero is
// meaningless) are rejected identically everywhere.
#pragma once

#include <cstdint>
#include <string>

namespace tflux::core {

/// Parse `text` as an unsigned decimal integer. Strict: the whole
/// string must be digits, must be non-empty, and the value must not
/// exceed `max`. When `min_one` is set, 0 is rejected too (for specs
/// like a sampling period where 0 would mean divide-by-zero at the
/// first sample point). Returns false (out untouched) on any
/// violation - callers turn that into their own diagnostic.
bool parse_spec_uint(const std::string& text, std::uint64_t max,
                     bool min_one, std::uint64_t& out);

/// Split a `key:value` spec at the first ':'. Returns false when
/// `spec` has no ':'; `key`/`value` are only written on success (an
/// empty value after the ':' is returned as such - the caller's value
/// parser decides whether that is legal).
bool split_spec(const std::string& spec, std::string& key,
                std::string& value);

}  // namespace tflux::core

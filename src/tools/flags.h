// The one option parser of the five command-line tools (tflux_run,
// tflux_serve, tflux_lint, tflux_check, tflux_model). Each tool
// describes its command line as a table of Flag entries bound to the
// fields of its options struct: parse_command() fills the struct from
// argv and usage_text() renders the help from the same table, so a
// flag's spelling, value range and help cannot drift apart. Flags that
// several tools accept are defined once below. Checks that relate two
// flags stay in each tool as plain code after parsing.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "apps/suite.h"
#include "core/error.h"
#include "core/guard.h"
#include "core/ready_set.h"
#include "core/spec.h"

namespace tflux::tools {

/// One command-line entry: a switch `--name` (empty hint), a valued
/// `--name=HINT`, or the positional operand (empty name).
struct Flag {
  std::string name;
  std::string hint;
  std::string help;
  /// Parse `value` into the bound field. Throws core::TFluxError with
  /// a message the parser prefixes with the tool name.
  std::function<void(const std::string& value)> set;
};

/// A tool's whole command line.
struct Command {
  std::string tool;    ///< "tflux_run"
  std::string about;   ///< paragraph under the usage line ("" = none)
  std::vector<Flag> flags;
  std::string footer;  ///< closing line ("" = none)
};

/// Fill the fields `command.flags` are bound to from `args` (argv
/// without the program name); `--help` / `-h` set `help`. Throws
/// core::TFluxError, prefixed with the tool name, on an unknown
/// option, a missing or unexpected value, or a value the entry
/// rejects.
void parse_command(const Command& command,
                   const std::vector<std::string>& args, bool& help);

/// The usage text, generated from the table.
std::string usage_text(const Command& command);

/// Every tool's main(): `run(parse(args), std::cout)`, with a
/// core::TFluxError printed to stderr as exit code 2.
template <typename Parse, typename Run>
int tool_main(int argc, char** argv, Parse parse, Run run) {
  try {
    return run(parse(std::vector<std::string>(argv + 1, argv + argc)),
               std::cout);
  } catch (const core::TFluxError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}

// ---- Entry kinds ------------------------------------------------------

/// `--name`: sets `field` to `value`.
Flag switch_flag(std::string name, std::string help, bool& field,
                 bool value = true);

/// `--name=N`: an unsigned integer in [min_one ? 1 : 0, max]; `max`
/// defaults to the range of the field's type, so nothing wraps.
template <std::unsigned_integral T>
Flag uint_flag(std::string name, std::string hint, std::string help,
               T& field, bool min_one = false,
               std::uint64_t max = std::numeric_limits<T>::max()) {
  Flag flag{name, std::move(hint), std::move(help), {}};
  flag.set = [name, &field, min_one, max](const std::string& value) {
    std::uint64_t parsed = 0;
    if (!core::parse_spec_uint(value, max, min_one, parsed)) {
      throw core::TFluxError(name + " expects an integer in [" +
                             (min_one ? "1" : "0") + ", " +
                             std::to_string(max) + "], got '" + value +
                             "'");
    }
    field = static_cast<T>(parsed);
  };
  return flag;
}

/// `--name=X`: a finite, non-negative number.
Flag double_flag(std::string name, std::string hint, std::string help,
                 double& field);

/// `--name=FILE`: a non-empty path.
Flag path_flag(std::string name, std::string hint, std::string help,
               std::string& field);

/// The positional operand: one non-empty path.
Flag operand(std::string hint, std::string help, std::string& field);

/// `--name=a|b|c`: one of the names `parse` accepts (false = unknown,
/// reported against `hint`).
template <typename T>
Flag choice_flag(std::string name, std::string hint, std::string help,
                 T& field, bool (*parse)(const std::string&, T&)) {
  Flag flag{name, hint, std::move(help), {}};
  flag.set = [name, hint, &field, parse](const std::string& value) {
    if (!parse(value, field)) {
      throw core::TFluxError(name + " expects one of " + hint + ", got '" +
                             value + "'");
    }
  };
  return flag;
}

// ---- Flags shared by several tools ------------------------------------

Flag app_flag(apps::AppKind& field, std::string help);
Flag size_flag(apps::SizeClass& field);

inline Flag unroll_flag(
    std::uint32_t& field, std::string help,
    std::uint64_t max = std::numeric_limits<std::uint32_t>::max()) {
  return uint_flag("--unroll", "N", std::move(help), field, true, max);
}
inline Flag tsu_capacity_flag(
    std::uint32_t& field, std::string help,
    std::uint64_t max = std::numeric_limits<std::uint32_t>::max()) {
  return uint_flag("--tsu-capacity", "N", std::move(help), field, false, max);
}
inline Flag tsu_groups_flag(std::uint16_t& field, std::string help) {
  return uint_flag("--tsu-groups", "N", std::move(help), field, true);
}
inline Flag policy_flag(core::PolicyKind& field, std::string help) {
  return choice_flag("--policy", "fifo|locality|hier|affinity",
                     std::move(help), field, core::parse_policy);
}
inline Flag guard_flag(core::GuardOptions& field, std::string help) {
  return choice_flag("--guard", "off|sampled[:N]|full", std::move(help),
                     field, core::parse_guard_spec);
}
/// `--no-dataplane` clears `dataplane`.
inline Flag no_dataplane_flag(bool& dataplane, std::string help) {
  return switch_flag("--no-dataplane", std::move(help), dataplane, false);
}
inline Flag json_flag(std::string& field, std::string help) {
  return path_flag("--json", "FILE", std::move(help), field);
}
inline Flag graph_flag(std::string& field, std::string help) {
  return path_flag("--graph", "FILE", std::move(help), field);
}
inline Flag trace_flag(std::string& field, std::string help) {
  return path_flag("--trace", "FILE", std::move(help), field);
}

}  // namespace tflux::tools

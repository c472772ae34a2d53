#include "tools/flags.h"

#include <cmath>
#include <stdexcept>

namespace tflux::tools {

using core::TFluxError;

namespace {

/// Help text starts in this column; lines wrap before kWidth.
constexpr std::size_t kHelpColumn = 39;
constexpr std::size_t kWidth = 79;

/// Append `text` word-wrapped: the first word goes at `column` (the
/// current column of `out`), continuation lines indent to `indent`.
void append_wrapped(std::string& out, const std::string& text,
                    std::size_t column, std::size_t indent) {
  std::size_t start = 0;
  bool first = true;
  while (start < text.size()) {
    std::size_t end = text.find(' ', start);
    if (end == std::string::npos) end = text.size();
    const std::size_t word = end - start;
    if (!first && column + 1 + word > kWidth) {
      out += '\n';
      out.append(indent, ' ');
      column = indent;
    } else if (!first) {
      out += ' ';
      ++column;
    }
    out.append(text, start, word);
    column += word;
    first = false;
    start = end + 1;
  }
  out += '\n';
}

void append_entry(std::string& out, const std::string& left,
                  const std::string& help) {
  out += "  " + left;
  if (help.empty()) {
    out += '\n';
    return;
  }
  if (2 + left.size() + 1 > kHelpColumn) {
    out += '\n';
    out.append(kHelpColumn, ' ');
  } else {
    out.append(kHelpColumn - 2 - left.size(), ' ');
  }
  append_wrapped(out, help, kHelpColumn, kHelpColumn);
}

std::string app_names() {
  std::string names;
  for (apps::AppKind kind : apps::all_apps()) {
    names += (names.empty() ? "" : "|") + apps::cli_name(kind);
  }
  return names;
}

}  // namespace

void parse_command(const Command& command,
                   const std::vector<std::string>& args, bool& help) {
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      help = true;
      continue;
    }
    const bool is_operand = arg.empty() || arg[0] != '-';
    const std::size_t eq = is_operand ? std::string::npos : arg.find('=');
    const std::string name = is_operand ? "" : arg.substr(0, eq);
    const Flag* flag = nullptr;
    for (const Flag& f : command.flags) {
      if (f.name == name) flag = &f;
    }
    if (flag == nullptr) {
      throw TFluxError(command.tool + ": unknown option '" + arg + "'\n" +
                       usage_text(command));
    }
    try {
      if (is_operand) {
        flag->set(arg);
      } else if (flag->hint.empty()) {
        if (eq != std::string::npos) throw TFluxError(name + " takes no value");
        flag->set("");
      } else if (eq == std::string::npos) {
        throw TFluxError(name + " expects a value: " + name + "=" +
                         flag->hint);
      } else {
        flag->set(arg.substr(eq + 1));
      }
    } catch (const TFluxError& e) {
      throw TFluxError(command.tool + ": " + e.what());
    }
  }
}

std::string usage_text(const Command& command) {
  std::string out = "usage: " + command.tool + " [options]";
  for (const Flag& f : command.flags) {
    if (f.name.empty()) out += " [" + f.hint + "]";
  }
  out += '\n';
  if (!command.about.empty()) append_wrapped(out, command.about, 0, 0);
  for (const Flag& f : command.flags) {
    append_entry(out, f.name.empty() || f.hint.empty()
                          ? f.name + f.hint
                          : f.name + "=" + f.hint,
                 f.help);
  }
  append_entry(out, "--help", "");
  if (!command.footer.empty()) out += command.footer + "\n";
  return out;
}

Flag switch_flag(std::string name, std::string help, bool& field,
                 bool value) {
  return Flag{std::move(name), "", std::move(help),
              [&field, value](const std::string&) { field = value; }};
}

Flag double_flag(std::string name, std::string hint, std::string help,
                 double& field) {
  Flag flag{name, std::move(hint), std::move(help), {}};
  flag.set = [name, &field](const std::string& value) {
    std::size_t end = 0;
    double parsed = -1.0;
    try {
      parsed = std::stod(value, &end);
    } catch (const std::exception&) {  // no number, or out of range
    }
    if (end != value.size() || !(parsed >= 0.0) || !std::isfinite(parsed)) {
      throw TFluxError(name + " expects a non-negative number, got '" +
                       value + "'");
    }
    field = parsed;
  };
  return flag;
}

Flag path_flag(std::string name, std::string hint, std::string help,
               std::string& field) {
  Flag flag{name, hint, std::move(help), {}};
  flag.set = [name, hint, &field](const std::string& value) {
    if (value.empty()) {
      throw TFluxError(name + " expects a non-empty " + hint);
    }
    field = value;
  };
  return flag;
}

Flag operand(std::string hint, std::string help, std::string& field) {
  Flag flag{"", hint, std::move(help), {}};
  flag.set = [hint, &field](const std::string& value) {
    if (value.empty()) throw TFluxError("empty " + hint + " operand");
    if (!field.empty()) throw TFluxError("more than one " + hint + " given");
    field = value;
  };
  return flag;
}

Flag app_flag(apps::AppKind& field, std::string help) {
  return Flag{"--app", app_names(), std::move(help),
              [&field](const std::string& v) { field = apps::parse_app(v); }};
}

Flag size_flag(apps::SizeClass& field) {
  return Flag{"--size", "small|medium|large",
              "problem size (default " + apps::cli_name(field) + ")",
              [&field](const std::string& v) { field = apps::parse_size(v); }};
}

}  // namespace tflux::tools

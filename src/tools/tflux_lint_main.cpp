// tflux_lint: ddmlint static verifier CLI. See tools/lint.h.
#include "tools/lint.h"
#include "tools/flags.h"

int main(int argc, char** argv) {
  return tflux::tools::tool_main(argc, argv, tflux::tools::parse_lint_args,
                                 tflux::tools::run_lint);
}

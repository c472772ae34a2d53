// tflux_run: run any Table-1 benchmark on any TFlux platform.
#include "tools/cli.h"
#include "tools/flags.h"

int main(int argc, char** argv) {
  return tflux::tools::tool_main(argc, argv, tflux::tools::parse_args,
                                 tflux::tools::run_cli);
}

// tflux_check: verify a recorded DDM execution trace (ddmcheck).
#include "tools/check.h"
#include "tools/flags.h"

int main(int argc, char** argv) {
  return tflux::tools::tool_main(argc, argv, tflux::tools::parse_check_args,
                                 tflux::tools::run_check);
}

// tflux_model: ddmmodel bounded exhaustive model checker CLI. See
// tools/model.h.
#include "tools/model.h"
#include "tools/flags.h"

int main(int argc, char** argv) {
  return tflux::tools::tool_main(argc, argv, tflux::tools::parse_model_args,
                                 tflux::tools::run_model);
}

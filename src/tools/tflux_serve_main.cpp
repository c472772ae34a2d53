// tflux_serve: replay an open-loop request stream against the
// resident multi-program executor (or the serial per-request baseline).
#include "tools/flags.h"
#include "tools/serve.h"

int main(int argc, char** argv) {
  return tflux::tools::tool_main(
      argc, argv, tflux::tools::parse_serve_args,
      [](const tflux::tools::ServeOptions& options, std::ostream& out) {
        return tflux::tools::run_serve(options, out);
      });
}

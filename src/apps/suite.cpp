#include "apps/suite.h"

#include <cctype>

#include "apps/fft.h"
#include "apps/mmult.h"
#include "apps/qsort.h"
#include "apps/susan.h"
#include "apps/susan_pipeline.h"
#include "apps/trapez.h"
#include "core/error.h"

namespace tflux::apps {

const char* to_string(AppKind kind) {
  switch (kind) {
    case AppKind::kTrapez:
      return "TRAPEZ";
    case AppKind::kMmult:
      return "MMULT";
    case AppKind::kQsort:
      return "QSORT";
    case AppKind::kSusan:
      return "SUSAN";
    case AppKind::kFft:
      return "FFT";
    case AppKind::kSusanPipe:
      return "SUSANPIPE";
  }
  return "?";
}

const char* to_string(SizeClass s) {
  switch (s) {
    case SizeClass::kSmall:
      return "Small";
    case SizeClass::kMedium:
      return "Medium";
    case SizeClass::kLarge:
      return "Large";
  }
  return "?";
}

const char* to_string(Platform p) {
  switch (p) {
    case Platform::kSimulated:
      return "Simulated";
    case Platform::kNative:
      return "Native";
    case Platform::kCell:
      return "Cell";
  }
  return "?";
}

std::vector<AppKind> all_apps() {
  return {AppKind::kTrapez, AppKind::kMmult, AppKind::kQsort,
          AppKind::kSusan, AppKind::kFft, AppKind::kSusanPipe};
}

std::vector<AppKind> table1_apps() {
  return {AppKind::kTrapez, AppKind::kMmult, AppKind::kQsort,
          AppKind::kSusan, AppKind::kFft};
}

std::vector<AppKind> cell_apps() {
  return {AppKind::kTrapez, AppKind::kMmult, AppKind::kQsort,
          AppKind::kSusan};
}

namespace {

std::string lower(const char* text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

template <typename T>
T parse_name(const char* noun, const std::vector<T>& known,
             const std::string& name) {
  std::string names;
  for (T value : known) {
    if (cli_name(value) == name) return value;
    names += (names.empty() ? "" : ", ") + cli_name(value);
  }
  throw core::TFluxError(std::string("unknown ") + noun + " '" + name +
                         "' (" + names + ")");
}

}  // namespace

std::string cli_name(AppKind kind) { return lower(to_string(kind)); }

std::string cli_name(SizeClass size) { return lower(to_string(size)); }

AppKind parse_app(const std::string& name) {
  return parse_name("app", all_apps(), name);
}

SizeClass parse_size(const std::string& name) {
  return parse_name("size",
                    std::vector<SizeClass>{SizeClass::kSmall,
                                           SizeClass::kMedium,
                                           SizeClass::kLarge},
                    name);
}

AppRun build_app(AppKind kind, SizeClass size, Platform platform,
                 const DdmParams& params) {
  switch (kind) {
    case AppKind::kTrapez:
      return build_trapez(trapez_input(size), params);
    case AppKind::kMmult:
      return build_mmult(mmult_input(size, platform), params);
    case AppKind::kQsort:
      return build_qsort(qsort_input(size, platform), params);
    case AppKind::kSusan:
      return build_susan(susan_input(size), params);
    case AppKind::kFft:
      return build_fft(fft_input(size), params);
    case AppKind::kSusanPipe:
      return build_susan_pipeline(susan_pipe_input(size), params);
  }
  throw core::TFluxError("build_app: unknown AppKind");
}

std::vector<WorkloadRow> table1_catalog() {
  return {
      {AppKind::kTrapez, "kernel", "Trapezoidal rule for integration",
       "2^19 / 2^21 / 2^23", "2^19 / 2^21 / 2^23", "2^19 / 2^21 / 2^23"},
      {AppKind::kMmult, "kernel", "Matrix multiply",
       "64x64 / 128x128 / 256x256", "256x256 / 512x512 / 1024x1024",
       "256x256 / 512x512 / 1024x1024"},
      {AppKind::kQsort, "MiBench", "Array sorting", "10K / 20K / 50K",
       "10K / 20K / 50K", "3K / 6K / 12K"},
      {AppKind::kSusan, "MiBench", "Image recognition / smoothing",
       "256x288 / 512x576 / 1024x576", "256x288 / 512x576 / 1024x576",
       "256x288 / 512x576 / 1024x576"},
      {AppKind::kFft, "NAS", "FFT on a matrix of complex numbers",
       "32 / 64 / 128", "32 / 64 / 128", "(not run on Cell)"},
      {AppKind::kSusanPipe, "DDRoom",
       "Tiled smooth-edge-corner frame pipeline",
       "256x288x3 / 512x576x4 / 1024x576x6",
       "256x288x3 / 512x576x4 / 1024x576x6", "(not run on Cell)"},
  };
}

}  // namespace tflux::apps

// Uniform driver interface over the five Table-1 benchmarks plus the
// SUSANPIPE pipeline workload (the data-plane evaluation app).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/common.h"

namespace tflux::apps {

enum class AppKind : std::uint8_t {
  kTrapez,
  kMmult,
  kQsort,
  kSusan,
  kFft,
  kSusanPipe,
};

const char* to_string(AppKind kind);

/// Every shipped benchmark: the five Table-1 apps (Figure 5/6 order)
/// plus SUSANPIPE.
std::vector<AppKind> all_apps();

/// The five Table-1 benchmarks only - the paper's figure
/// reproductions iterate these (SUSANPIPE is a post-paper workload).
std::vector<AppKind> table1_apps();

/// The four benchmarks evaluated on TFluxCell (Figure 7 omits FFT).
std::vector<AppKind> cell_apps();

/// The lower-case spelling the command-line tools accept and ddmtrace
/// metadata records ("trapez", "small").
std::string cli_name(AppKind kind);
std::string cli_name(SizeClass size);

/// Inverse of cli_name. Throws core::TFluxError "unknown app 'x'
/// (trapez, mmult, ...)" / "unknown size 'x' (small, ...)" otherwise.
AppKind parse_app(const std::string& name);
SizeClass parse_size(const std::string& name);

/// Build the DDM program for `kind` with the platform's Table-1
/// problem size for `size`.
AppRun build_app(AppKind kind, SizeClass size, Platform platform,
                 const DdmParams& params);

/// One row of the Table-1 catalog (for bench/table1_workloads).
struct WorkloadRow {
  AppKind app;
  std::string source;
  std::string description;
  std::string sizes_simulated;
  std::string sizes_native;
  std::string sizes_cell;
};

std::vector<WorkloadRow> table1_catalog();

}  // namespace tflux::apps

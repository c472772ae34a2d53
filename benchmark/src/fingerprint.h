// Host and build fingerprint attached to every benchmark result, and
// the process's peak resident memory.
#pragma once

#include <string>

namespace tflux::bench {

struct Fingerprint {
  unsigned cpus = 0;
  std::string compiler;
  std::string flags;      ///< compile flags of the measured build
  std::string sanitizer;  ///< empty for a plain build
  std::string commit;     ///< source revision (git commit or tree digest)
  std::string loadavg;    ///< 1/5/15-minute load average at start
};

Fingerprint host_fingerprint(const std::string& commit);

/// One JSON object holding every fingerprint field.
std::string to_json(const Fingerprint& fp);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Host CPU time counters (/proc/stat, all CPUs), to tell how much of a
/// run's CPU time a virtual machine's host took away.
struct CpuTimes {
  unsigned long long busy = 0;   ///< user + nice + system + irq + softirq
  unsigned long long idle = 0;   ///< idle + iowait
  unsigned long long steal = 0;  ///< taken by the hypervisor
};
CpuTimes read_cpu_times();

/// Steal as a percentage of all CPU time between two readings.
double steal_pct(const CpuTimes& from, const CpuTimes& to);

}  // namespace tflux::bench

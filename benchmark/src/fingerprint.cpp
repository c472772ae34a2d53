#include "fingerprint.h"

#include <sys/resource.h>

#include <fstream>
#include <thread>

#ifndef TFLUX_BENCH_CXX_FLAGS
#define TFLUX_BENCH_CXX_FLAGS "unknown"
#endif
#ifndef TFLUX_BENCH_COMPILER
#define TFLUX_BENCH_COMPILER "unknown"
#endif

namespace tflux::bench {

namespace {

std::string sanitizer_of_build() {
  const std::string flags = TFLUX_BENCH_CXX_FLAGS;
  const std::size_t at = flags.find("-fsanitize=");
  if (at != std::string::npos) {
    return flags.substr(at, flags.find(' ', at) - at);
  }
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "";
#endif
}

std::string escape(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') continue;
    out += c;
  }
  return out;
}

}  // namespace

Fingerprint host_fingerprint(const std::string& commit) {
  Fingerprint fp;
  fp.cpus = std::thread::hardware_concurrency();
  fp.compiler = TFLUX_BENCH_COMPILER;
  fp.flags = TFLUX_BENCH_CXX_FLAGS;
  fp.flags.erase(0, fp.flags.find_first_not_of(' '));
#ifdef NDEBUG
  fp.flags += " -DNDEBUG";
#endif
  fp.sanitizer = sanitizer_of_build();
  fp.commit = commit.empty() ? "unknown" : commit;
  std::ifstream load("/proc/loadavg");
  std::string a, b, c;
  if (load >> a >> b >> c) fp.loadavg = a + " " + b + " " + c;
  return fp;
}

std::string to_json(const Fingerprint& fp) {
  return "{\"cpus\": " + std::to_string(fp.cpus) + ", \"compiler\": \"" +
         escape(fp.compiler) + "\", \"flags\": \"" + escape(fp.flags) +
         "\", \"sanitizer\": \"" + escape(fp.sanitizer) +
         "\", \"commit\": \"" + escape(fp.commit) + "\", \"loadavg\": \"" +
         escape(fp.loadavg) + "\"}";
}

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                     irq = 0, softirq = 0, steal = 0;
  if (stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
      softirq >> steal) {
    t.busy = user + nice + system + irq + softirq;
    t.idle = idle + iowait;
    t.steal = steal;
  }
  return t;
}

double steal_pct(const CpuTimes& from, const CpuTimes& to) {
  const double total = static_cast<double>((to.busy - from.busy) +
                                           (to.idle - from.idle) +
                                           (to.steal - from.steal));
  return total <= 0.0 ? 0.0 : 100.0 * (to.steal - from.steal) / total;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace tflux::bench

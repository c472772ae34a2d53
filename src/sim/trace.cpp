#include "sim/trace.h"

#include <sstream>

#include "core/json.h"

namespace tflux::sim {

void Trace::add_span(std::uint32_t lane, Cycles begin, Cycles end,
                     std::string name) {
  if (end < begin) end = begin;
  spans_.push_back(TraceSpan{begin, end, lane, std::move(name)});
}

void Trace::set_lane_name(std::uint32_t lane, std::string name) {
  if (lane_names_.size() <= lane) lane_names_.resize(lane + 1);
  lane_names_[lane] = std::move(name);
}

std::string Trace::to_chrome_json() const {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t lane = 0; lane < lane_names_.size(); ++lane) {
    if (lane_names_[lane].empty()) continue;
    if (!first) out << ",";
    first = false;
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << lane
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    out << core::json_escape(lane_names_[lane]);
    out << "\"}}";
  }
  for (const TraceSpan& s : spans_) {
    if (!first) out << ",";
    first = false;
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane << ",\"ts\":"
        << s.begin << ",\"dur\":" << (s.end - s.begin) << ",\"name\":\"";
    out << core::json_escape(s.name);
    out << "\"}";
  }
  out << "]}";
  return out.str();
}

}  // namespace tflux::sim

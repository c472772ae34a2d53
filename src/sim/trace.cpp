#include "sim/trace.h"

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
  core::JsonWriter json(core::JsonWriter::Layout::kLine);
  json.begin_object().begin_array("traceEvents");
  for (std::size_t lane = 0; lane < lane_names_.size(); ++lane) {
    if (lane_names_[lane].empty()) continue;
    json.begin_object()
        .field("ph", "M")
        .field("pid", 1)
        .field("tid", lane)
        .field("name", "thread_name")
        .begin_object("args")
        .field("name", lane_names_[lane])
        .end_object()
        .end_object();
  }
  for (const TraceSpan& s : spans_) {
    json.begin_object()
        .field("ph", "X")
        .field("pid", 1)
        .field("tid", s.lane)
        .field("ts", s.begin)
        .field("dur", s.end - s.begin)
        .field("name", s.name)
        .end_object();
  }
  json.end_array().end_object();
  return json.str();
}

}  // namespace tflux::sim

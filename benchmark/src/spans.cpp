#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace tflux::bench {

int SpanRecorder::begin(std::string name, std::string detail,
                        std::uint64_t unit) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.detail = std::move(detail);
  s.parent = open_.empty() ? -1 : open_.back();
  s.unit = unit;
  s.start = Clock::now();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::end(int index) {
  if (index < 0) return;
  spans_[index].end = Clock::now();
  // Scopes close innermost-first; tolerate a disable in between.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int SpanRecorder::add(std::string name, std::string detail,
                      Clock::time_point start, Clock::time_point end,
                      int parent, std::uint64_t unit, bool async) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.detail = std::move(detail);
  s.start = start;
  s.end = end;
  s.parent = parent;
  s.unit = unit;
  s.async = async;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> SpanRecorder::durations_ms(const std::string& name,
                                               const std::string& detail) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && (detail.empty() || s.detail == detail)) {
      out.push_back(s.ms());
    }
  }
  return out;
}

double SpanRecorder::total_ms(const std::string& name,
                              const std::string& detail) const {
  double sum = 0.0;
  for (double d : durations_ms(name, detail)) sum += d;
  return sum;
}

std::map<std::string, double> SpanRecorder::self_ms_by_layer() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) children[spans_[i].parent].push_back(int(i));
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    for (int c : children[i]) {
      iv.emplace_back(std::max(spans_[c].start, s.start),
                      std::min(spans_[c].end, s.end));
    }
    std::sort(iv.begin(), iv.end());
    Clock::duration covered{0};
    Clock::time_point reach = s.start;
    for (const auto& [lo, hi] : iv) {
      const Clock::time_point from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[s.layer()] +=
        std::chrono::duration<double, std::milli>((s.end - s.start) - covered)
            .count();
  }
  return self;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point t0 = spans_.empty() ? Clock::now() : spans_[0].start;
  auto us = [t0](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - t0).count();
  };
  char buf[160];
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string args = "{\"span\":" + std::to_string(i) +
                       ",\"parent\":" + std::to_string(s.parent) +
                       ",\"unit\":" + std::to_string(s.unit) +
                       ",\"detail\":\"" + s.detail + "\"}";
    std::string label = s.detail.empty() ? s.name : s.name + " " + s.detail;
    if (i != 0) out << ",\n";
    if (s.async) {
      // Overlapping request spans: an async pair keyed by the request id.
      std::snprintf(buf, sizeof buf, "%.3f", us(s.start));
      out << "{\"name\":\"" << label << "\",\"cat\":\"" << s.layer()
          << "\",\"ph\":\"b\",\"id\":" << s.unit << ",\"pid\":1,\"tid\":2,"
          << "\"ts\":" << buf << ",\"args\":" << args << "},\n";
      std::snprintf(buf, sizeof buf, "%.3f", us(s.end));
      out << "{\"name\":\"" << label << "\",\"cat\":\"" << s.layer()
          << "\",\"ph\":\"e\",\"id\":" << s.unit << ",\"pid\":1,\"tid\":2,"
          << "\"ts\":" << buf << "}";
    } else {
      std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", us(s.start),
                    us(s.end) - us(s.start));
      out << "{\"name\":\"" << label << "\",\"cat\":\"" << s.layer()
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf
          << ",\"args\":" << args << "}";
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace tflux::bench

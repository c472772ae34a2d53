#include "core/ddmtrace.h"

#include <algorithm>
#include <sstream>

#include "core/error.h"

namespace tflux::core {

const char* to_string(TraceEvent event) {
  switch (event) {
    case TraceEvent::kDispatch:
      return "dispatch";
    case TraceEvent::kComplete:
      return "complete";
    case TraceEvent::kUpdate:
      return "update";
    case TraceEvent::kShadowDecrement:
      return "shadow-decrement";
    case TraceEvent::kInletLoad:
      return "inlet-load";
    case TraceEvent::kOutletDone:
      return "outlet-done";
    case TraceEvent::kBlockPromote:
      return "block-promote";
    case TraceEvent::kRangeUpdate:
      return "range-update";
  }
  return "?";
}

namespace {

bool parse_event(const std::string& name, TraceEvent& out) {
  for (TraceEvent e :
       {TraceEvent::kDispatch, TraceEvent::kComplete, TraceEvent::kUpdate,
        TraceEvent::kShadowDecrement, TraceEvent::kInletLoad,
        TraceEvent::kOutletDone, TraceEvent::kBlockPromote,
        TraceEvent::kRangeUpdate}) {
    if (name == to_string(e)) {
      out = e;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string save_trace(const ExecTrace& trace) {
  std::ostringstream out;
  out << "ddmtrace 2\n";
  out << "program " << trace.program << "\n";
  out << "config kernels " << trace.kernels << " groups " << trace.groups
      << " policy " << trace.policy << " pipeline "
      << (trace.pipelined ? 1 : 0) << " lockfree "
      << (trace.lockfree ? 1 : 0);
  // Optional clauses: only non-default values are written, so older
  // traces stay byte-identical with their original writers.
  if (trace.dataplane) out << " dataplane 1";
  out << "\n";
  if (!trace.app.empty()) {
    out << "app " << trace.app << " " << trace.size << " unroll "
        << trace.unroll << " tsu-capacity " << trace.tsu_capacity << "\n";
  }
  if (trace.truncated) out << "truncated 1\n";
  for (const TraceRecord& r : trace.records) {
    out << "e " << r.seq << " " << to_string(r.event) << " " << r.actor
        << " " << r.a << " " << r.b;
    // Only the range-update record carries a third operand; keeping
    // the other lines five-field preserves byte-for-byte shape with
    // version-1 traces.
    if (r.event == TraceEvent::kRangeUpdate) out << " " << r.c;
    out << "\n";
  }
  return out.str();
}

ExecTrace load_trace(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  auto fail = [&line_no](const std::string& message) -> void {
    throw TFluxError("load_trace: line " + std::to_string(line_no) + ": " +
                     message);
  };

  ExecTrace trace;
  trace.program = "loaded";
  bool saw_magic = false;

  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) continue;  // blank

    if (word == "ddmtrace") {
      int version = 0;
      if (!(ls >> version) || (version != 1 && version != 2)) {
        fail("unsupported ddmtrace version");
      }
      saw_magic = true;
    } else if (!saw_magic) {
      fail("file must start with 'ddmtrace <version>'");
    } else if (word == "program") {
      if (!(ls >> trace.program)) fail("program needs a name");
    } else if (word == "config") {
      std::string clause;
      while (ls >> clause) {
        if (clause == "kernels") {
          unsigned k = 0;
          if (!(ls >> k) || k == 0) fail("config kernels needs a count");
          trace.kernels = static_cast<std::uint16_t>(k);
        } else if (clause == "groups") {
          unsigned g = 0;
          if (!(ls >> g) || g == 0) fail("config groups needs a count");
          trace.groups = static_cast<std::uint16_t>(g);
        } else if (clause == "policy") {
          if (!(ls >> trace.policy)) fail("config policy needs a name");
        } else if (clause == "pipeline") {
          int v = 0;
          if (!(ls >> v)) fail("config pipeline needs 0 or 1");
          trace.pipelined = v != 0;
        } else if (clause == "lockfree") {
          int v = 0;
          if (!(ls >> v)) fail("config lockfree needs 0 or 1");
          trace.lockfree = v != 0;
        } else if (clause == "shards") {
          unsigned s = 0;
          if (!(ls >> s)) fail("config shards needs a count");
        } else if (clause == "coalesce") {
          int v = 0;
          if (!(ls >> v)) fail("config coalesce needs 0 or 1");
          if (v == 0) {
            fail("config coalesce 0: the unit-update mode was removed; "
                 "only coalesced traces can be replayed");
          }
        } else if (clause == "dataplane") {
          int v = 0;
          if (!(ls >> v)) fail("config dataplane needs 0 or 1");
          trace.dataplane = v != 0;
        } else {
          fail("unknown config clause '" + clause + "'");
        }
      }
    } else if (word == "app") {
      if (!(ls >> trace.app >> trace.size)) {
        fail("app needs <name> <size>");
      }
      std::string clause;
      while (ls >> clause) {
        if (clause == "unroll") {
          if (!(ls >> trace.unroll)) fail("app unroll needs a factor");
        } else if (clause == "tsu-capacity") {
          if (!(ls >> trace.tsu_capacity)) {
            fail("app tsu-capacity needs a count");
          }
        } else {
          fail("unknown app clause '" + clause + "'");
        }
      }
    } else if (word == "truncated") {
      int v = 0;
      if (!(ls >> v)) fail("truncated needs 0 or 1");
      trace.truncated = v != 0;
    } else if (word == "e") {
      TraceRecord r;
      std::string event;
      unsigned actor = 0;
      if (!(ls >> r.seq >> event >> actor >> r.a >> r.b)) {
        fail("e needs <seq> <event> <actor> <a> <b>");
      }
      if (!parse_event(event, r.event)) {
        fail("unknown event '" + event + "'");
      }
      if (r.event == TraceEvent::kRangeUpdate) {
        if (!(ls >> r.c)) fail("range-update needs <seq> <actor> <a> <b> <c>");
      } else {
        ls >> r.c;  // optional third operand on other events
        if (ls.fail()) {
          ls.clear();
          r.c = 0;
        }
      }
      r.actor = static_cast<std::uint16_t>(actor);
      trace.records.push_back(r);
    } else {
      fail("unknown directive '" + word + "'");
    }
  }
  if (!saw_magic) {
    ++line_no;
    fail("empty input (missing 'ddmtrace <version>' header)");
  }

  std::stable_sort(trace.records.begin(), trace.records.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.seq < b.seq;
                   });
  return trace;
}

}  // namespace tflux::core

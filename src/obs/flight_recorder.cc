#include "obs/flight_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace trajpattern::obs {
namespace {

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string FlightRecordJson(const std::string& trigger,
                             const std::string& detail) {
  const int64_t wall_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  RunJournal& journal = RunJournal::Global();
  TraceRecorder& tracer = TraceRecorder::Global();

  std::string out = "{\n\"flight_record\": 1,\n\"trigger\": ";
  AppendEscaped(trigger, &out);
  out += ",\n\"detail\": ";
  AppendEscaped(detail, &out);
  out += ",\n\"wall_unix_ms\": " + std::to_string(wall_ms);

  out += ",\n\"runs\": [\n";
  const std::vector<RunSnapshot> runs = journal.Runs();
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i != 0) out += ",\n";
    AppendRunSnapshotJson(runs[i], &out);
  }
  out += "\n]";

  // Journal tail: each retained line is already a strict-JSON object, so
  // the lines splice straight into an array.
  out += ",\n\"journal\": [\n";
  const std::vector<std::string> tail =
      journal.TailLines(kFlightMaxJournalEvents);
  for (size_t i = 0; i < tail.size(); ++i) {
    if (i != 0) out += ",\n";
    out += tail[i];
  }
  out += "\n]";

  // Trace tail: newest spans across all threads, re-sorted by timestamp
  // (Collect is oldest-first per thread, not globally).
  out += ",\n\"trace\": {\"dropped_events\": " +
         std::to_string(tracer.dropped_events()) + ", \"events\": [\n";
  std::vector<TraceEvent> events = tracer.Collect();
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us < b.ts_us;
            });
  if (events.size() > kFlightMaxTraceEvents) {
    events.erase(events.begin(),
                 events.end() - static_cast<ptrdiff_t>(kFlightMaxTraceEvents));
  }
  for (size_t i = 0; i < events.size(); ++i) {
    if (i != 0) out += ",\n";
    TraceRecorder::AppendEventJson(events[i], &out);
  }
  out += "\n]}";

  out += ",\n\"metrics\": ";
  out += ToJson(MetricsRegistry::Global().Snapshot());
  out += "\n}\n";
  return out;
}

std::string WriteFlightRecord(const std::string& dir,
                              const std::string& trigger,
                              const std::string& detail) {
  if (dir.empty()) return "";
  const std::string body = FlightRecordJson(trigger, detail);
  const int64_t wall_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const std::string stem = dir + "/flight_" + std::to_string(wall_ms);
  // Same-millisecond dumps (a restart loop) get a _<n> suffix rather
  // than overwriting the earlier post-mortem.
  std::string path = stem + ".json";
  for (int n = 1; n < 100; ++n) {
    std::FILE* probe = std::fopen(path.c_str(), "r");
    if (probe == nullptr) break;
    std::fclose(probe);
    path = stem + "_" + std::to_string(n) + ".json";
  }
  if (!WriteFileAtomicish(path, body)) return "";
  MetricsRegistry::Global().GetCounter("obs.flight_dumps")->Increment();
  JournalEvent e;
  e.type = JournalEventType::kFlightDump;
  e.detail = trigger + ": " + path;
  RunJournal::Global().Emit(e);
  return path;
}

}  // namespace trajpattern::obs

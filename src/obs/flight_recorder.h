#ifndef TRAJPATTERN_OBS_FLIGHT_RECORDER_H_
#define TRAJPATTERN_OBS_FLIGHT_RECORDER_H_

#include <cstddef>
#include <string>

namespace trajpattern::obs {

/// Newest journal events a flight record includes (the journal's own
/// tail ring caps what is available; see RunJournal::set_ring_capacity).
/// The record is a post-mortem, not an archive: the tail is what explains
/// the death.
inline constexpr size_t kFlightMaxJournalEvents = 256;
/// Newest trace spans/counters a flight record includes, across all
/// threads.
inline constexpr size_t kFlightMaxTraceEvents = 512;

/// Assembles the crash flight record as a JSON document: the trigger,
/// the journal's run table, the last journal events, the newest trace
/// events (plus the dropped-events count), and a full metrics snapshot.
/// Safe to call from a catch block or an abort path — it only reads the
/// global recorders.
std::string FlightRecordJson(const std::string& trigger,
                             const std::string& detail);

/// Writes `FlightRecordJson` to `dir/flight_<unix_ms>[_<n>].json` (the
/// `_<n>` suffix disambiguates same-millisecond dumps), bumps the
/// `obs.flight_dumps` counter, and journals a kFlightDump event naming
/// the artifact.  Returns the path, or "" on I/O failure.
std::string WriteFlightRecord(const std::string& dir,
                              const std::string& trigger,
                              const std::string& detail);

}  // namespace trajpattern::obs

#endif  // TRAJPATTERN_OBS_FLIGHT_RECORDER_H_

#ifndef TRAJPATTERN_SERVER_FAULT_INJECTOR_H_
#define TRAJPATTERN_SERVER_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "geometry/point.h"
#include "prob/rng.h"
#include "server/mobile_object_server.h"
#include "trajectory/trajectory.h"

namespace trajpattern {

/// One report in flight from a device to the server: the delivery-ordered
/// unit the fault injector perturbs.
struct ReportEvent {
  MobileObjectServer::ObjectId object = 0;
  double time = 0.0;
  Point2 location;

  friend bool operator==(const ReportEvent& a, const ReportEvent& b) {
    return a.object == b.object && a.time == b.time &&
           a.location == b.location;
  }
};

/// Per-fault-kind rates and shapes; all rates are independent Bernoulli
/// probabilities per report.
struct FaultInjectorOptions {
  /// Report vanishes (the lossy channel of §3.1).
  double drop_rate = 0.0;
  /// Report is delivered twice (a device retransmit).
  double duplicate_rate = 0.0;
  /// Report swaps delivery order with the previously emitted one.
  double reorder_rate = 0.0;
  /// Report's timestamp slips late by up to `FaultInjector::kMaxDelay`.
  double delay_rate = 0.0;
  /// Report's coordinates are corrupted.  A share of
  /// `FaultInjector::kCorruptNanFraction` become NaN coordinates (caught
  /// at ingest); the rest are finite teleports of magnitude
  /// ~`corrupt_offset` (they pass ingest and must be caught by the
  /// `TrajectoryValidator`).
  double corrupt_rate = 0.0;
  double corrupt_offset = 25.0;
  uint64_t seed = 1;
};

/// Counts of what one `Inject` pass actually did.
struct FaultStats {
  size_t input = 0;
  size_t dropped = 0;
  size_t duplicated = 0;
  size_t reordered = 0;
  size_t delayed = 0;
  size_t corrupted = 0;
  size_t emitted = 0;
};

/// Deterministic, seeded fault model wrapped around a report stream so
/// robustness is testable end-to-end: the same (stream, options) pair
/// always yields the same faulted stream.
class FaultInjector {
 public:
  /// Largest lateness a delayed report's timestamp slips by.
  static constexpr double kMaxDelay = 1.0;
  /// Share of corruptions that are NaN coordinates.
  static constexpr double kCorruptNanFraction = 0.25;

  explicit FaultInjector(const FaultInjectorOptions& options)
      : options_(options) {}

  const FaultInjectorOptions& options() const { return options_; }

  /// The faulted version of `clean`, in delivery order.
  std::vector<ReportEvent> Inject(const std::vector<ReportEvent>& clean,
                                  FaultStats* stats = nullptr) const;

 private:
  FaultInjectorOptions options_;
};

/// Shape of one call-level fault stream (see `FaultSchedule`).
struct FaultScheduleOptions {
  /// The first `fail_first` calls fail unconditionally — a transient
  /// outage burst, the shape retry-with-backoff is built for.
  int fail_first = 0;
  /// After the burst, each call fails independently with this rate.
  double fail_rate = 0.0;
  uint64_t seed = 1;
};

/// Deterministic fault stream for one call-level injection point —
/// checkpoint-sink writes, worker-task exceptions, arena allocation —
/// extending the report-level `FaultInjector` model to the mining run's
/// own fault surfaces.  `ShouldFail()` advances the stream; the same
/// options always yield the same fail/pass sequence, so crash, retry,
/// and resume tests replay bit-identically.
class FaultSchedule {
 public:
  explicit FaultSchedule(const FaultScheduleOptions& options)
      : options_(options), rng_(options.seed) {}

  /// Advances the stream: true == this call should fail.
  bool ShouldFail() {
    const int64_t call = calls_++;
    bool fail = call < options_.fail_first;
    if (!fail && options_.fail_rate > 0.0) {
      fail = rng_.Bernoulli(options_.fail_rate);
    }
    if (fail) ++failures_;
    return fail;
  }

  int64_t calls() const { return calls_; }
  int64_t failures() const { return failures_; }

 private:
  FaultScheduleOptions options_;
  Rng rng_;
  int64_t calls_ = 0;
  int64_t failures_ = 0;
};

/// Parses a `--faults=` spec like "drop:0.05,corrupt:0.01,dup:0.02,
/// reorder:0.01,delay:0.05" (any subset; unknown keys and rates outside
/// [0, 1] are errors).
StatusOr<FaultInjectorOptions> ParseFaultSpec(const std::string& spec);

/// A dataset rendered as the report stream that would have produced it:
/// object i (same index as in `data`) reports its snapshot means at times
/// start_time + s * interval, interleaved in time order across objects —
/// the clean input a `FaultInjector` perturbs.
struct ReportStream {
  std::vector<std::string> names;
  std::vector<ReportEvent> events;
};
ReportStream DatasetToReportStream(const TrajectoryDataset& data,
                                   double start_time = 0.0,
                                   double interval = 1.0);

/// Plays `stream` into a fresh `MobileObjectServer` (registering every
/// name) and returns the synchronized fleet view.  Ingest rejections land
/// in the server's typed counters, copied to `*totals` when given.
TrajectoryDataset IngestAndSynchronize(const ReportStream& stream,
                                       const MobileObjectServer::Options& options,
                                       IngestStats* totals = nullptr);

}  // namespace trajpattern

#endif  // TRAJPATTERN_SERVER_FAULT_INJECTOR_H_

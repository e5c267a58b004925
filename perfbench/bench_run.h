#ifndef TRAJPATTERN_PERFBENCH_BENCH_RUN_H_
#define TRAJPATTERN_PERFBENCH_BENCH_RUN_H_

// One benchmark run: a workload on one seed, repeated for a fixed time,
// checked against its reference answer, reduced to medians.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_logic.h"
#include "workloads.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  /// Timed repetitions run until this many seconds have passed ...
  double seconds = 10.0;
  /// ... and at least this many have run.  With no timed repetitions
  /// (0 and 0) only the reference repetition runs.
  int min_reps = 3;
  /// Also run `traced_reps` repetitions with the trace recorder on and
  /// derive the per-layer metrics from them.
  bool trace = false;
  int traced_reps = 3;
  /// Stored reference digests; may be null or lack this (workload, seed).
  const ReferenceTable* references = nullptr;
};

struct RunOutcome {
  bool correct = true;
  /// Timed and traced repetitions, and those whose answer was wrong or
  /// that stopped early.
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Why the run is not correct, one line each.
  std::vector<std::string> errors;
  /// "stored" when the reference came from the reference table, otherwise
  /// "in-run" (the unbudgeted reference repetition alone).
  std::string reference_source;
  /// The unbudgeted reference repetition's digest.
  std::vector<std::string> reference_digest;
  /// Wall-clock seconds of each timed repetition, in run order.
  std::vector<double> pipeline_samples;
  std::vector<Metric> end_to_end;
  /// Filled only with `RunOptions::trace`.
  std::vector<Metric> per_layer;
};

RunOutcome RunBenchmark(const Workload& w, const RunOptions& options);

/// What the numbers were measured on: core count, SIMD level, compiler,
/// build type, workload and seed, as one JSON object.
std::string MachineStampJson(const Workload& w, uint64_t seed);

}  // namespace perfbench

#endif  // TRAJPATTERN_PERFBENCH_BENCH_RUN_H_

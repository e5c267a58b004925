#ifndef TRAJPATTERN_PERFBENCH_WORKLOADS_H_
#define TRAJPATTERN_PERFBENCH_WORKLOADS_H_

// The benchmark's workloads and the one pipeline they all run:
// report stream -> MobileObjectServer -> synchronize -> validate ->
// [velocity transform] -> NmEngine -> MineTrajPatterns -> GroupPatterns
// -> [EvaluatePrediction].  The program sees only the generated reports,
// through its public calls.

#include <cstdint>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "core/miner.h"
#include "prediction/dead_reckoning.h"
#include "server/fault_injector.h"
#include "server/mobile_object_server.h"
#include "trajectory/validate.h"

namespace perfbench {

/// Trace category of the benchmark's stage spans.
inline constexpr const char* kStageCategory = "stage";

struct Workload {
  /// kBus is Fig. 3's bus network (5 routes x 10 buses x 10 days, the last
  /// day held out); it ignores the ZebraNet fields.
  enum class Kind { kZebra, kBus };
  std::string name;
  Kind kind = Kind::kZebra;
  /// ZebraNet: S trajectories of L snapshots over a grid_side^2 grid.
  int num_trajectories = 0;
  int num_snapshots = 40;
  int grid_side = 10;
  /// Mining knobs (MinerOptions); scoring is always serial.
  int k = 10;
  size_t min_length = 0;
  size_t max_pattern_length = 4;
  size_t beam = 0;
  int max_iterations = 64;
  uint64_t memory_budget_bytes = 0;
  /// Objects report at every `report_every`-th snapshot; the server
  /// dead-reckons the rest.
  int report_every = 1;
  /// Perturb the stream with the seeded FaultInjector.
  bool faults = false;
};

/// The named workloads, in the order `--workload all` runs them.
const std::vector<Workload>& Workloads();
/// The workload called `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// Everything a repetition feeds the program, generated from the seed
/// outside any timed span.
struct Inputs {
  trajpattern::ReportStream stream;
  trajpattern::MobileObjectServer::Options server;
  trajpattern::ValidationPolicy policy;
};
/// `seed` draws the zebra workloads' measurement errors and faults over a
/// fixed herd, and bus_predict's whole bus network (seed 1 is Fig. 3's).
Inputs MakeInputs(const Workload& w, uint64_t seed);

/// One repetition's timings, counters and answer.
struct Rep {
  double pipeline_s = 0.0;
  double pipeline_cpu_s = 0.0;
  int64_t reports = 0;
  int64_t reports_rejected = 0;
  int64_t snapshots = 0;
  trajpattern::ValidationReport validation;
  trajpattern::MinerStats miner;
  /// Data points of the mined dataset (the scoring kernel's per-candidate
  /// work).
  int64_t mined_points = 0;
  int64_t arena_peak_bytes = 0;
  int64_t cells_evicted = 0;
  size_t groups = 0;
  trajpattern::PredictionEvaluation predict_base;
  trajpattern::PredictionEvaluation predict_assisted;
  /// The top-k digest; on the bus workload one more line carries the
  /// mis-prediction counts.
  std::vector<std::string> digest;
  /// Empty when the answer passed the self-consistency checks (see
  /// `RunPipeline`), otherwise what failed.
  std::string self_check_error;
};

/// Runs one repetition.  `budgeted` false drops the workload's memory
/// budget (the reference for the budgeted answer).  With `self_check`,
/// the top-k is also checked against the program's per-pattern scoring
/// path (bit-identical NM), its order and its size, after the timed span.
/// While the process trace recorder is on, each stage records a span in
/// category "stage": ingest, sync, validate, transform (bus), build, mine,
/// group, predict (bus).  The stages tile the pipeline span.
Rep RunPipeline(const Workload& w, const Inputs& in, bool budgeted,
                bool self_check);

/// Server construction plus registering every object: the set-up a
/// repetition pays before its first report.  Repeats it until at least
/// `kSetupBatchSeconds` have passed and returns the mean seconds of one,
/// since one takes microseconds, near the clock's own noise.
inline constexpr double kSetupBatchSeconds = 0.005;
double TimeSetup(const Inputs& in);

}  // namespace perfbench

#endif  // TRAJPATTERN_PERFBENCH_WORKLOADS_H_

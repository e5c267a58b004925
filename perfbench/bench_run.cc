#include "bench_run.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <map>

#include "core/simd_kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace trajpattern;

namespace {

// Program spans that split the `mine` stage (src/core).
constexpr const char* kWarmSpan = "nm/warmup";
constexpr const char* kScoreSpan = "nm/scoring";
constexpr const char* kRebuildSpan = "miner/rebuild";

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// What one traced repetition measured: the per-layer metrics in output
// order, except the two `trace.*` ones, which compare repetitions.
struct TracedRep {
  Rep rep;
  std::vector<Metric> metrics;
  double stage_sum_gap_pct = 0.0;
  uint64_t dropped_events = 0;
};

TracedRep RunTraced(const Workload& w, const Inputs& in) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  recorder.Start();
  TracedRep t;
  t.rep = RunPipeline(w, in, /*budgeted=*/true, /*self_check=*/false);
  recorder.Stop();
  t.dropped_events = recorder.dropped_events();
  const obs::MetricsSnapshot counters = registry.Snapshot();
  auto counter = [&](const char* name) -> double {
    const auto it = counters.counters.find(name);
    return it == counters.counters.end() ? 0.0
                                         : static_cast<double>(it->second);
  };

  // The pipeline runs on one thread (serial scoring); its stage spans name
  // it.
  const std::vector<obs::TraceEvent> events = recorder.Collect();
  int tid = -1;
  for (const obs::TraceEvent& e : events) {
    if (e.phase == 'X' && std::string(e.cat) == kStageCategory) tid = e.tid;
  }
  std::vector<Span> stages;
  std::vector<Span> layers;
  double warm = 0.0;
  double score = 0.0;
  double rebuild = 0.0;
  for (const obs::TraceEvent& e : events) {
    if (e.phase != 'X' || e.tid != tid) continue;
    const std::string name = e.name;
    const Span span{name, e.ts_us, e.dur_us};
    if (std::string(e.cat) == kStageCategory) {
      stages.push_back(span);
    } else if (name == kWarmSpan) {
      warm += e.dur_us * 1e-6;
    } else if (name == kScoreSpan) {
      score += e.dur_us * 1e-6;
    } else if (name == kRebuildSpan) {
      rebuild += e.dur_us * 1e-6;
    } else {
      continue;
    }
    layers.push_back(span);
  }
  t.stage_sum_gap_pct = StageSumGapPct(stages, t.rep.pipeline_s);
  std::map<std::string, double> self = SelfSeconds(layers);
  double mine = 0.0;
  for (const Span& s : stages) {
    if (s.name == "mine") mine += s.dur_us * 1e-6;
  }
  const Rep& r = t.rep;
  const double reports = static_cast<double>(r.reports);
  const double scored = counter("nm.candidates_scored");
  const double points = static_cast<double>(r.mined_points);
  const double hits = counter("nm.warmup_hits");
  const double lookups = hits + counter("nm.warmup_misses");
  const double base = r.predict_base.mispredictions;
  const double assisted = r.predict_assisted.mispredictions;
  t.metrics = {
      {"server.ingest_s", "s", self["ingest"]},
      {"server.reports", "count", reports},
      {"server.reports_rejected", "count",
       static_cast<double>(r.reports_rejected)},
      {"server.ingest_ns_per_report", "ns",
       reports > 0 ? self["ingest"] * 1e9 / reports : 0.0},
      {"server.sync_s", "s", self["sync"]},
      {"server.snapshots", "count", static_cast<double>(r.snapshots)},
      {"trajectory.validate_s", "s", self["validate"]},
      {"trajectory.repaired", "count",
       static_cast<double>(r.validation.repaired)},
      {"trajectory.quarantined", "count",
       static_cast<double>(r.validation.quarantined)},
      {"trajectory.dropped", "count",
       static_cast<double>(r.validation.dropped)},
      {"trajectory.transform_s", "s", self["transform"]},
      {"nm_engine.build_s", "s", self["build"]},
      {"nm_engine.score_s", "s", score},
      {"nm_engine.candidates_scored", "count", scored},
      {"nm_engine.ns_per_candidate_point", "ns",
       scored > 0 && points > 0 ? score * 1e9 / (scored * points) : 0.0},
      {"nm_engine.warm_s", "s", warm},
      {"nm_engine.cells_warmed", "count", counter("nm.cells_warmed")},
      {"nm_engine.warm_hit_ratio", "ratio",
       lookups > 0 ? hits / lookups : 0.0},
      {"nm_engine.cells_evicted", "count",
       static_cast<double>(r.cells_evicted)},
      {"nm_engine.arena_peak_mb", "MiB",
       static_cast<double>(r.arena_peak_bytes) / (1024.0 * 1024.0)},
      {"miner.mine_s", "s", mine},
      {"miner.other_s", "s", mine - warm - score},
      {"miner.rebuild_s", "s", rebuild},
      {"miner.iterations", "count", static_cast<double>(r.miner.iterations)},
      {"miner.candidates_generated", "count",
       static_cast<double>(r.miner.candidates_generated)},
      {"miner.candidates_evaluated", "count",
       static_cast<double>(r.miner.candidates_evaluated)},
      {"miner.peak_queue", "count",
       static_cast<double>(r.miner.peak_queue_size)},
      {"miner.alphabet", "count", static_cast<double>(r.miner.alphabet_size)},
      {"pattern_group.group_s", "s", self["group"]},
      {"pattern_group.groups", "count", static_cast<double>(r.groups)},
      {"prediction.eval_s", "s", self["predict"]},
      {"prediction.predictions", "count",
       static_cast<double>(r.predict_base.predictions)},
      {"prediction.mispredictions_base", "count", base},
      {"prediction.mispredictions_assisted", "count", assisted},
      {"prediction.mispred_reduction_pct", "%",
       base > 0 ? 100.0 * (base - assisted) / base : 0.0},
  };
  return t;
}

}  // namespace

RunOutcome RunBenchmark(const Workload& w, const RunOptions& options) {
  RunOutcome out;
  auto fail = [&](const std::string& why) {
    out.correct = false;
    out.errors.push_back(w.name + " seed " + std::to_string(options.seed) +
                         ": " + why);
  };
  const Inputs in = MakeInputs(w, options.seed);

  // Every repetition's answer, checked against the reference at the end.
  struct Answer {
    std::vector<std::string> hashes;
    StopReason stop;
    bool attempted;
  };
  std::vector<Answer> answers;
  auto keep = [&](const Rep& rep, bool attempted) {
    answers.push_back(
        {LineHashes(rep.digest), rep.miner.stop_reason, attempted});
  };

  std::vector<double> setup;
  std::vector<double> pipeline;
  std::vector<double> cpu;
  if (options.min_reps > 0 || options.seconds > 0) {
    // Untimed warm-up in the timed configuration: caches fill and lazy
    // set-up finishes before the first timed repetition.
    keep(RunPipeline(w, in, /*budgeted=*/true, false), false);
    const auto start = std::chrono::steady_clock::now();
    auto elapsed = [&] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };
    while (static_cast<int>(pipeline.size()) < options.min_reps ||
           elapsed() < options.seconds) {
      // A set-up sample takes milliseconds against a repetition's
      // seconds; taken before each one, the samples see the host over the
      // whole run, as the repetitions do.
      setup.push_back(TimeSetup(in));
      const Rep rep = RunPipeline(w, in, /*budgeted=*/true, false);
      pipeline.push_back(rep.pipeline_s);
      cpu.push_back(rep.pipeline_cpu_s);
      keep(rep, true);
    }
  }
  // Read before the unbudgeted reference and the traced repetitions, which
  // would otherwise set the peak.
  const double peak_rss_mb = PeakRssMb();

  // The reference answer: the unbudgeted run, checked against the
  // per-pattern scoring path, and against the stored digest when there
  // is one.
  const Rep ref = RunPipeline(w, in, /*budgeted=*/false, /*self_check=*/true);
  if (!ref.self_check_error.empty()) fail(ref.self_check_error);
  if (ref.miner.stop_reason != StopReason::kNone) {
    fail(std::string("reference run stopped: ") +
         StopReasonName(ref.miner.stop_reason));
  }
  out.reference_digest = ref.digest;
  std::vector<std::string> reference = LineHashes(ref.digest);
  out.reference_source = "in-run";
  if (options.references != nullptr) {
    const auto stored = options.references->find({w.name, options.seed});
    if (stored != options.references->end()) {
      out.reference_source = "stored";
      const long at = FirstDifference(reference, stored->second);
      if (at >= 0) {
        fail("answer differs from the stored reference at line " +
             std::to_string(at + 1) + ": got '" +
             (static_cast<size_t>(at) < ref.digest.size() ? ref.digest[at]
                                                          : "<none>") +
             "'");
      }
      reference = stored->second;
    }
  }

  std::vector<TracedRep> traced;
  if (options.trace) {
    for (int i = 0; i < options.traced_reps; ++i) {
      traced.push_back(RunTraced(w, in));
      keep(traced.back().rep, true);
    }
  }

  for (size_t i = 0; i < answers.size(); ++i) {
    const Answer& a = answers[i];
    const long at = FirstDifference(a.hashes, reference);
    const bool wrong = at >= 0 || a.stop != StopReason::kNone;
    if (a.attempted) {
      ++out.attempted;
      if (wrong) ++out.failed;
    }
    if (wrong && out.errors.size() < 8) {
      fail("repetition " + std::to_string(i) +
           (a.stop != StopReason::kNone
                ? std::string(" stopped: ") + StopReasonName(a.stop)
                : " differs from the reference at line " +
                      std::to_string(at + 1)));
    }
  }
  if (out.failed > 0) out.correct = false;

  out.pipeline_samples = pipeline;
  out.end_to_end = {
      {"setup_s", "s", Median(setup)},
      {"pipeline_s", "s", Median(pipeline)},
      {"pipeline_cpu_s", "s", Median(cpu)},
      {"peak_rss_mb", "MiB", peak_rss_mb},
  };

  if (options.trace) {
    std::vector<double> traced_pipeline;
    std::vector<double> gaps;
    for (const TracedRep& t : traced) {
      traced_pipeline.push_back(t.rep.pipeline_s);
      gaps.push_back(t.stage_sum_gap_pct);
      if (t.stage_sum_gap_pct > kMaxStageSumGapPct) {
        fail("traced stages sum to " + std::to_string(t.stage_sum_gap_pct) +
             "% off the traced wall-clock");
      }
      if (t.dropped_events > 0) {
        fail("the trace dropped " + std::to_string(t.dropped_events) +
             " events");
      }
    }
    // Times are medians over the traced repetitions; counts repeat.
    for (size_t i = 0; i < traced.front().metrics.size(); ++i) {
      std::vector<double> samples;
      for (const TracedRep& t : traced) samples.push_back(t.metrics[i].value);
      Metric m = traced.front().metrics[i];
      m.value = Median(samples);
      out.per_layer.push_back(m);
    }
    out.per_layer.push_back(
        {"trace.overhead_pct", "%",
         (Median(traced_pipeline) / Median(pipeline) - 1.0) * 100.0});
    out.per_layer.push_back({"trace.stage_sum_gap_pct", "%", Median(gaps)});
  }
  for (const auto* metrics : {&out.end_to_end, &out.per_layer}) {
    for (const Metric& m : *metrics) {
      if (!std::isfinite(m.value)) fail(m.name + " is not finite");
    }
  }
  return out;
}

std::string MachineStampJson(const Workload& w, uint64_t seed) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("g++ ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"simd\": " + JsonQuote(simd::ActiveLevelName()) +
         ", \"compiler\": " + JsonQuote(compiler) +
         ", \"build_type\": " + JsonQuote(PERFBENCH_BUILD_TYPE) +
         ", \"workload\": " + JsonQuote(w.name) +
         ", \"seed\": " + std::to_string(seed) + "}";
}

}  // namespace perfbench

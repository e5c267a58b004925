#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>

#include "bench_logic.h"
#include "core/nm_engine.h"
#include "core/pattern_group.h"
#include "datagen/bus_generator.h"
#include "datagen/zebranet_generator.h"
#include "geometry/grid.h"
#include "obs/trace.h"
#include "prediction/motion_model.h"
#include "prediction/pattern_assisted.h"
#include "prob/rng.h"
#include "trajectory/transform.h"

namespace perfbench {

using namespace trajpattern;

namespace {

// ZebraNet reporting sigma, as in the Fig. 4 benches.
constexpr double kZebraSigma = 0.006;
// The zebra workloads watch one fixed herd (this generator seed); the run's
// seed draws each report's measurement error, N(0, kZebraSigma) per axis,
// and the channel faults.  A herd drawn from the run's seed would change
// the miner's work from seed to seed (the candidate lengths the beam keeps
// and the frontier sizes), and with it the time, by up to ~18%.
constexpr uint64_t kZebraHerdSeed = 1;
// Extra sigma per snapshot without a report, used by both the
// synchronizer's dead reckoning and the validator's repairs.
constexpr double kSigmaGrowth = 0.003;
// Largest plausible ZebraNet move per snapshot; the injected teleports
// are ~25 units away.
constexpr double kMaxJump = 0.25;

// Fig. 3's bus setup (bench/fig3_prediction.cc defaults).
constexpr int kBusRoutes = 5;
constexpr int kBusesPerRoute = 10;
constexpr int kBusDays = 10;
constexpr int kBusSnapshots = 100;
constexpr int kVelocityGridSide = 16;

BusGeneratorOptions BusOptions(uint64_t seed) {
  BusGeneratorOptions opt;
  opt.num_routes = kBusRoutes;
  opt.buses_per_route = kBusesPerRoute;
  opt.num_days = kBusDays;
  opt.num_snapshots = kBusSnapshots;
  opt.waypoint_pool = 14;
  opt.min_waypoints = 7;
  opt.max_waypoints = 10;
  opt.seed = seed;
  return opt;
}

DeadReckoningOptions BusReckoning() {
  DeadReckoningOptions opt;
  opt.uncertainty = 0.01;
  opt.c = 2.0;
  return opt;
}

PatternAssistOptions BusAssist(const Workload& w) {
  const DeadReckoningOptions dr = BusReckoning();
  PatternAssistOptions opt;
  opt.confirm_threshold = 0.45;
  opt.min_confirm_length = 2;
  opt.max_confirm_length = static_cast<int>(w.max_pattern_length);
  opt.velocity_sigma = dr.uncertainty / dr.c * std::sqrt(2.0);
  return opt;
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string SelfCheck(const Workload& w, const NmEngine& engine,
                      const std::vector<ScoredPattern>& top_k) {
  if (top_k.size() != static_cast<size_t>(w.k)) {
    return "top-k holds " + std::to_string(top_k.size()) + " patterns, not " +
           std::to_string(w.k);
  }
  for (size_t r = 0; r < top_k.size(); ++r) {
    const Pattern& p = top_k[r].pattern;
    if (p.length() < std::max<size_t>(w.min_length, 1) ||
        (w.max_pattern_length > 0 && p.length() > w.max_pattern_length)) {
      return "rank " + std::to_string(r + 1) + " has length " +
             std::to_string(p.length());
    }
    if (r > 0 && top_k[r].nm > top_k[r - 1].nm) {
      return "rank " + std::to_string(r + 1) + " outscores rank " +
             std::to_string(r);
    }
    const double rescored = engine.NmTotal(p);
    if (std::memcmp(&rescored, &top_k[r].nm, sizeof(double)) != 0) {
      return "rank " + std::to_string(r + 1) +
             " NM differs from the per-pattern scoring path";
    }
  }
  return "";
}

}  // namespace

// The zebra workloads cap the candidates scored per iteration (beam) below
// what exact mining stages on any herd tried, and cap the iterations, so
// every seed asks the same number of candidate evaluations: exact mining's
// count swings 2.7x across herds (160k-438k on a 120-zebra herd), which no
// run length averages out.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = [] {
    std::vector<Workload> out;
    Workload wide;
    wide.name = "zebra_wide";
    wide.num_trajectories = 2000;
    wide.grid_side = 10;
    wide.k = 10;
    wide.max_pattern_length = 4;
    wide.beam = 12000;
    wide.max_iterations = 2;
    wide.report_every = 3;
    wide.faults = true;
    out.push_back(wide);

    Workload budget;
    budget.name = "zebra_budget";
    budget.num_trajectories = 500;
    budget.grid_side = 10;
    budget.k = 10;
    budget.max_pattern_length = 4;
    budget.beam = 2000;
    budget.max_iterations = 2;
    budget.memory_budget_bytes = 4000000;
    out.push_back(budget);

    Workload bus;
    bus.name = "bus_predict";
    bus.kind = Workload::Kind::kBus;
    bus.k = 100;
    bus.min_length = 4;
    bus.max_pattern_length = 6;
    bus.beam = 4000;
    // Bus networks stop on their own after 4 to 6 iterations (16,256 or
    // 20,256 candidates, the later ones longer and dearer to score); at 4
    // every seed scores the same 16,256, and seed 1 keeps Fig. 3's answer.
    bus.max_iterations = 4;
    out.push_back(bus);
    return out;
  }();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs MakeInputs(const Workload& w, uint64_t seed) {
  Inputs in;
  TrajectoryDataset data;
  if (w.kind == Workload::Kind::kBus) {
    const BusGeneratorOptions opt = BusOptions(seed);
    data = GenerateBusTraces(opt);
    in.server.sync.num_snapshots = opt.num_snapshots;
    in.server.sync.base_sigma = opt.sigma;
  } else {
    ZebraNetGeneratorOptions opt;
    opt.num_zebras = w.num_trajectories;
    opt.num_groups = std::max(2, w.num_trajectories / 10);
    opt.num_snapshots = w.num_snapshots;
    opt.sigma = kZebraSigma;
    opt.seed = kZebraHerdSeed;
    data = GenerateZebraNet(opt);
    in.server.sync.num_snapshots = w.num_snapshots;
    in.server.sync.base_sigma = kZebraSigma;
    in.policy.max_jump = kMaxJump;
    in.policy.sigma_growth = kSigmaGrowth;
  }
  in.server.sync.start_time = 0.0;
  in.server.sync.interval = 1.0;
  if (w.report_every > 1) in.server.sync.sigma_growth = kSigmaGrowth;

  in.stream = DatasetToReportStream(data);
  if (w.kind == Workload::Kind::kZebra) {
    Rng rng(seed);
    for (ReportEvent& e : in.stream.events) {
      e.location.x += rng.Normal(0.0, kZebraSigma);
      e.location.y += rng.Normal(0.0, kZebraSigma);
    }
  }
  if (w.report_every > 1) {
    auto& events = in.stream.events;
    events.erase(std::remove_if(events.begin(), events.end(),
                                [&](const ReportEvent& e) {
                                  return static_cast<int64_t>(e.time) %
                                             w.report_every !=
                                         0;
                                }),
                 events.end());
  }
  if (w.faults) {
    FaultInjectorOptions fopt;
    fopt.drop_rate = 0.05;
    fopt.duplicate_rate = 0.01;
    fopt.reorder_rate = 0.01;
    fopt.corrupt_rate = 0.01;
    fopt.seed = seed;
    in.stream.events = FaultInjector(fopt).Inject(in.stream.events);
  }
  return in;
}

double TimeSetup(const Inputs& in) {
  const Clock::time_point start = Clock::now();
  int done = 0;
  double elapsed = 0.0;
  do {
    MobileObjectServer server(in.server);
    for (const std::string& name : in.stream.names) server.Register(name);
    ++done;
    elapsed = SecondsSince(start);
  } while (elapsed < kSetupBatchSeconds);
  return elapsed / done;
}

Rep RunPipeline(const Workload& w, const Inputs& in, bool budgeted,
                bool self_check) {
  Rep rep;
  const bool bus = w.kind == Workload::Kind::kBus;
  std::optional<MiningSpace> space;
  double gamma = 0.0;
  if (!bus) {
    const Grid grid = Grid::UnitSquare(w.grid_side);
    space.emplace(grid, std::max(grid.cell_width(), grid.cell_height()));
    gamma = grid.cell_width();
  }
  MinerOptions mopt;
  mopt.k = w.k;
  mopt.min_length = w.min_length;
  mopt.max_pattern_length = w.max_pattern_length;
  mopt.max_candidates_per_iteration = w.beam;
  mopt.max_iterations = w.max_iterations;
  mopt.num_threads = 1;
  if (budgeted) mopt.run.memory_budget_bytes = w.memory_budget_bytes;

  MobileObjectServer server(in.server);
  for (const std::string& name : in.stream.names) server.Register(name);

  const double cpu_start = CpuSeconds();
  const Clock::time_point start = Clock::now();
  {
    obs::ScopedSpan stage("ingest", kStageCategory);
    for (const ReportEvent& e : in.stream.events) {
      server.Report(e.object, e.time, e.location);
    }
  }
  TrajectoryDataset synced;
  {
    obs::ScopedSpan stage("sync", kStageCategory);
    synced = server.SynchronizeAll();
  }
  TrajectoryDataset valid;
  {
    obs::ScopedSpan stage("validate", kStageCategory);
    valid = TrajectoryValidator(in.policy).Validate(synced, &rep.validation);
  }
  TrajectoryDataset mined;
  TrajectoryDataset held_out;
  if (bus) {
    obs::ScopedSpan stage("transform", kStageCategory);
    const size_t test_count = static_cast<size_t>(kBusRoutes) * kBusesPerRoute;
    auto [train, test] = valid.Split(valid.size() - test_count);
    held_out = std::move(test);
    mined = ToVelocityTrajectories(train);
    const Grid vgrid(mined.MeanBoundingBox(0.005), kVelocityGridSide,
                     kVelocityGridSide);
    // Half a cell pitch, as in Fig. 3.
    space.emplace(vgrid,
                  0.5 * std::max(vgrid.cell_width(), vgrid.cell_height()));
    gamma = 3.0 * BusAssist(w).velocity_sigma;
  } else {
    mined = std::move(valid);
  }
  std::unique_ptr<NmEngine> engine;
  {
    obs::ScopedSpan stage("build", kStageCategory);
    engine = std::make_unique<NmEngine>(mined, *space);
  }
  MiningResult result;
  {
    obs::ScopedSpan stage("mine", kStageCategory);
    result = MineTrajPatterns(*engine, mopt);
  }
  std::vector<PatternGroup> groups;
  {
    obs::ScopedSpan stage("group", kStageCategory);
    groups = GroupPatterns(result.patterns, space->grid, gamma);
  }
  if (bus) {
    obs::ScopedSpan stage("predict", kStageCategory);
    // One representative per group: near-duplicate shifted variants add no
    // prediction coverage (Fig. 3's de-duplication).
    std::vector<ScoredPattern> representatives;
    for (const PatternGroup& g : groups) {
      representatives.push_back(g.members.front());
    }
    const DeadReckoningOptions dr = BusReckoning();
    const LinearModel linear;
    rep.predict_base = EvaluatePrediction(held_out, linear, dr);
    const PatternAssistedModel assisted(linear.Clone(), representatives,
                                        *space, BusAssist(w));
    rep.predict_assisted = EvaluatePrediction(held_out, assisted, dr);
  }
  rep.pipeline_s = SecondsSince(start);
  rep.pipeline_cpu_s = CpuSeconds() - cpu_start;

  rep.reports = static_cast<int64_t>(in.stream.events.size());
  rep.reports_rejected = server.total_ingest_stats().rejected();
  rep.snapshots = static_cast<int64_t>(synced.TotalPoints());
  rep.miner = result.stats;
  rep.mined_points = static_cast<int64_t>(mined.TotalPoints());
  rep.arena_peak_bytes = static_cast<int64_t>(engine->arena_peak_bytes());
  rep.cells_evicted = static_cast<int64_t>(engine->cells_evicted());
  rep.groups = groups.size();
  rep.digest = TopKDigest(result.patterns);
  if (bus) {
    rep.digest.push_back(
        "mispredictions " + std::to_string(rep.predict_base.mispredictions) +
        " " + std::to_string(rep.predict_assisted.mispredictions));
  }
  if (self_check) rep.self_check_error = SelfCheck(w, *engine, result.patterns);
  return rep;
}

}  // namespace perfbench

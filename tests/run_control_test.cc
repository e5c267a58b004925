// The run-control layer end to end: RunContext stop semantics, thread
// pool exception capture, cancellation/deadline/memory-budget stops
// across all three miners (typed StopReason, exact best-so-far), and
// the crash-safe MiningSupervisor (sink retry with backoff, injected
// faults, auto-resume).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baseline/match_apriori.h"
#include "baseline/pb_miner.h"
#include "common/run_context.h"
#include "core/miner.h"
#include "core/nm_engine.h"
#include "datagen/planted_generator.h"
#include "geometry/grid.h"
#include "io/checkpoint.h"
#include "obs/obs.h"
#include "parallel/thread_pool.h"
#include "server/fault_injector.h"
#include "server/mining_supervisor.h"

namespace trajpattern {
namespace {

// ------------------------------------------------------------ RunContext

TEST(RunContextTest, DefaultNeverStops) {
  RunContext run;
  EXPECT_EQ(run.CheckStop(), StopReason::kNone);
  EXPECT_FALSE(run.StopRequested());
}

TEST(RunContextTest, ExpiredDeadlineFires) {
  RunContext run;
  run.SetDeadlineAfterMillis(-1.0);
  EXPECT_EQ(run.CheckStop(), StopReason::kDeadlineExceeded);
  EXPECT_TRUE(run.StopRequested());
}

TEST(RunContextTest, CancellationWinsOverDeadline) {
  RunContext run;
  run.SetDeadlineAfterMillis(-1.0);
  run.token.Cancel();
  EXPECT_EQ(run.CheckStop(), StopReason::kCancelled);
}

TEST(RunContextTest, TokenCopiesShareOneFlag) {
  RunContext run;
  const CancellationToken copy = run.token;  // the caller's handle
  EXPECT_FALSE(run.StopRequested());
  copy.Cancel();
  EXPECT_EQ(run.CheckStop(), StopReason::kCancelled);
}

TEST(RunContextTest, StopReasonNamesAreStable) {
  EXPECT_STREQ(StopReasonName(StopReason::kNone), "none");
  EXPECT_STREQ(StopReasonName(StopReason::kCancelled), "cancelled");
  EXPECT_STREQ(StopReasonName(StopReason::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(StopReasonName(StopReason::kMemoryBudgetExceeded),
               "memory_budget_exceeded");
  EXPECT_STREQ(StopReasonName(StopReason::kAllocFailed), "alloc_failed");
  EXPECT_STREQ(StopReasonName(StopReason::kWorkCap), "work_cap");
  EXPECT_STREQ(StopReasonName(StopReason::kSinkVeto), "sink_veto");
}

// ------------------------------------------- thread pool exception capture

TEST(ThreadPoolExceptionTest, WaitRethrowsFirstTaskException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&ran, i] {
      ++ran;
      if (i == 5) throw std::runtime_error("task 5 failed");
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // Remaining queued tasks still ran: one failure does not wedge the
  // round, and the pool stays usable afterwards.
  EXPECT_EQ(ran.load(), 32);
  pool.Submit([&ran] { ++ran; });
  EXPECT_NO_THROW(pool.Wait());
  EXPECT_EQ(ran.load(), 33);
}

TEST(ThreadPoolExceptionTest, FaultScheduleDrivenWorkerExceptions) {
  // Draw the deterministic fault stream serially (FaultSchedule is not a
  // concurrent object), then let pool tasks consult the pre-drawn mask.
  FaultScheduleOptions fo;
  fo.fail_first = 2;
  fo.fail_rate = 0.25;
  fo.seed = 9;
  FaultSchedule schedule(fo);
  std::vector<char> fail_mask(64);
  for (auto& f : fail_mask) f = schedule.ShouldFail() ? 1 : 0;
  ASSERT_GE(schedule.failures(), 2);  // the unconditional burst

  ThreadPool pool(4);
  for (size_t i = 0; i < fail_mask.size(); ++i) {
    pool.Submit([&fail_mask, i] {
      if (fail_mask[i]) throw std::runtime_error("injected worker fault");
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  EXPECT_NO_THROW(pool.Wait());  // the slot was consumed by the rethrow
}

TEST(ParallelForTest, RethrowsOnCallingThread) {
  ThreadPool pool(4);
  std::atomic<size_t> executed{0};
  EXPECT_THROW(ParallelFor(&pool, 10000,
                           [&executed](size_t i, int) {
                             if (i == 0) throw std::runtime_error("lane died");
                             ++executed;
                           }),
               std::runtime_error);
  // Item 0 never counted, so a full sweep is impossible: the failure was
  // noticed, not papered over.
  EXPECT_LT(executed.load(), 10000u);
  // The pool survives for the next round.
  ParallelFor(&pool, 100, [&executed](size_t, int) { ++executed; });
}

TEST(ParallelForTest, PreCancelledRunsNothing) {
  RunContext run;
  run.token.Cancel();
  std::atomic<size_t> executed{0};
  ThreadPool pool(4);
  ParallelFor(&pool, 1000, [&executed](size_t, int) { ++executed; }, &run);
  EXPECT_EQ(executed.load(), 0u);
  // Serial inline path polls identically.
  ParallelFor(nullptr, 1000, [&executed](size_t, int) { ++executed; }, &run);
  EXPECT_EQ(executed.load(), 0u);
}

TEST(ParallelForTest, SerialPathCancelsMidLoop) {
  RunContext run;
  size_t executed = 0;
  ParallelFor(nullptr, 100,
              [&](size_t i, int) {
                ++executed;
                if (i == 4) run.token.Cancel();
              },
              &run);
  // The poll runs before each claim: items 0..4 execute, 5..99 never do.
  EXPECT_EQ(executed, 5u);
}

// -------------------------------------------------- miner run-control stops

TrajectoryDataset MakeMiningData() {
  PlantedPatternOptions opt;
  opt.pattern = {Point2(0.15, 0.15), Point2(0.45, 0.45), Point2(0.75, 0.75)};
  opt.num_with_pattern = 12;
  opt.num_background = 6;
  opt.num_snapshots = 12;
  opt.seed = 7;
  return GeneratePlantedPatterns(opt);
}

MiningSpace MakeSpace() { return MiningSpace(Grid::UnitSquare(8), 0.125); }

MinerOptions MakeOptions(int num_threads = 1) {
  MinerOptions opt;
  opt.k = 10;
  opt.max_pattern_length = 4;
  opt.num_threads = num_threads;
  return opt;
}

// A deeper workload for boundary-sweep tests: a 5-cell planted chain
// under min_length=2 takes 4 grow iterations to converge, so there are
// real mid-run boundaries to cancel at.
TrajectoryDataset MakeDeepMiningData() {
  PlantedPatternOptions opt;
  opt.pattern = {Point2(0.15, 0.15), Point2(0.35, 0.35), Point2(0.55, 0.55),
                 Point2(0.75, 0.75), Point2(0.95, 0.95)};
  opt.num_with_pattern = 30;
  opt.num_background = 0;
  opt.num_snapshots = 10;
  opt.sigma = 0.005;
  opt.seed = 7;
  return GeneratePlantedPatterns(opt);
}

MinerOptions MakeDeepOptions(int num_threads = 1) {
  MinerOptions opt;
  opt.k = 10;
  opt.min_length = 2;
  opt.max_pattern_length = 5;
  opt.num_threads = num_threads;
  return opt;
}

void ExpectBitIdentical(const std::vector<ScoredPattern>& a,
                        const std::vector<ScoredPattern>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pattern, b[i].pattern) << "rank " << i;
    EXPECT_EQ(std::memcmp(&a[i].nm, &b[i].nm, sizeof(double)), 0)
        << "rank " << i;
  }
}

TEST(MinerRunControlTest, PreCancelledRunStopsWithTypedReason) {
  const TrajectoryDataset data = MakeMiningData();
  MinerOptions opt = MakeOptions();
  opt.run.token.Cancel();
  NmEngine engine(data, MakeSpace());
  const MiningResult result = MineTrajPatterns(engine, opt);
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kCancelled);
}

TEST(MinerRunControlTest, ExpiredDeadlineStopsWithTypedReason) {
  const TrajectoryDataset data = MakeMiningData();
  MinerOptions opt = MakeOptions();
  opt.run.SetDeadlineAfterMillis(-1.0);
  NmEngine engine(data, MakeSpace());
  const MiningResult result = MineTrajPatterns(engine, opt);
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kDeadlineExceeded);
}

TEST(MinerRunControlTest, CancelledBestSoFarIsExactTopKOfCompletedWork) {
  // A run cancelled at iteration boundary B must return exactly what a
  // run capped at B iterations returns — best-so-far means "the exact
  // answer over everything scored so far", never a half-applied batch.
  const TrajectoryDataset data = MakeDeepMiningData();
  const MiningSpace space = MakeSpace();
  const MinerOptions base = MakeDeepOptions();
  NmEngine full_engine(data, space);
  const MiningResult full = MineTrajPatterns(full_engine, base);
  ASSERT_GT(full.stats.iterations, 1);

  for (int stop_after = 1; stop_after < full.stats.iterations; ++stop_after) {
    MinerOptions cancelled = base;
    // Copying options shares the token (that is how callers keep their
    // cancel handle), so each interrupted run needs a fresh context or
    // the trip would poison the reference runs below.
    cancelled.run = RunContext();
    const CancellationToken token = cancelled.run.token;
    cancelled.checkpoint_sink = [token, stop_after](const MinerCheckpoint& cp) {
      if (cp.iteration == stop_after) token.Cancel();
      return true;
    };
    NmEngine engine(data, space);
    const MiningResult partial = MineTrajPatterns(engine, cancelled);
    ASSERT_TRUE(partial.stats.aborted);
    EXPECT_EQ(partial.stats.stop_reason, StopReason::kCancelled);

    MinerOptions capped = base;
    capped.max_iterations = stop_after;
    NmEngine capped_engine(data, space);
    const MiningResult reference = MineTrajPatterns(capped_engine, capped);
    ExpectBitIdentical(partial.patterns, reference.patterns);
  }
}

TEST(MinerRunControlTest, AbortedRunEmitsResumableFinalCheckpoint) {
  // Even when the cancel fires between sink deliveries, the sink ends up
  // holding a boundary checkpoint that resumes to the uninterrupted
  // answer.
  const TrajectoryDataset data = MakeDeepMiningData();
  const MiningSpace space = MakeSpace();
  const MinerOptions base = MakeDeepOptions();
  NmEngine full_engine(data, space);
  const MiningResult full = MineTrajPatterns(full_engine, base);

  MinerOptions cancelled = base;
  cancelled.run = RunContext();  // options copies share the token
  const CancellationToken token = cancelled.run.token;
  MinerCheckpoint captured;
  int deliveries = 0;
  cancelled.checkpoint_sink = [&captured, &deliveries,
                               token](const MinerCheckpoint& cp) {
    captured = cp;
    ++deliveries;
    if (cp.iteration == 1) token.Cancel();
    return true;
  };
  NmEngine engine(data, space);
  const MiningResult partial = MineTrajPatterns(engine, cancelled);
  ASSERT_TRUE(partial.stats.aborted);
  ASSERT_GT(deliveries, 0);

  // Round-trip the captured checkpoint through the file format and
  // resume: bit-identical to the uninterrupted run.
  std::stringstream ss;
  ASSERT_TRUE(WriteMinerCheckpoint(captured, ss).ok());
  MinerCheckpoint loaded;
  ASSERT_TRUE(ReadMinerCheckpoint(ss, &loaded).ok());
  NmEngine resume_engine(data, space);
  const MiningResult resumed = MineTrajPatterns(resume_engine, base, &loaded);
  ASSERT_FALSE(resumed.stats.aborted);
  ExpectBitIdentical(resumed.patterns, full.patterns);
}

TEST(MinerRunControlTest, MemoryBudgetHoldsAndStaysBitIdentical) {
  // A budget of a handful of columns forces chunked scoring and LRU
  // eviction, but the answer must not move: chunk boundaries and
  // evictions are pure bookkeeping.
  const TrajectoryDataset data = MakeMiningData();
  const MiningSpace space = MakeSpace();
  NmEngine unlimited_engine(data, space);
  const MiningResult unlimited =
      MineTrajPatterns(unlimited_engine, MakeOptions());
  ASSERT_FALSE(unlimited.stats.aborted);

  for (int threads : {1, 8}) {
    NmEngine engine(data, space);
    MinerOptions opt = MakeOptions(threads);
    opt.run.memory_budget_bytes = 8 * engine.column_bytes();
    const MiningResult result = MineTrajPatterns(engine, opt);
    ASSERT_FALSE(result.stats.aborted) << "threads=" << threads;
    ExpectBitIdentical(result.patterns, unlimited.patterns);
    EXPECT_GT(engine.cells_evicted(), 0u) << "threads=" << threads;
    EXPECT_LE(engine.arena_peak_bytes(), opt.run.memory_budget_bytes)
        << "threads=" << threads;
    EXPECT_GT(result.stats.cells_evicted, 0);
  }
}

TEST(MinerRunControlTest, ImpossibleBudgetStopsWithTypedReason) {
  // Less than one column: no shedding or chunk-shrinking can help, so
  // the run gives up with the typed budget stop instead of thrashing.
  const TrajectoryDataset data = MakeMiningData();
  NmEngine engine(data, MakeSpace());
  MinerOptions opt = MakeOptions();
  opt.run.memory_budget_bytes = 1;
  const MiningResult result = MineTrajPatterns(engine, opt);
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kMemoryBudgetExceeded);
}

TEST(MinerRunControlTest, InjectedAllocFailureStopsWithTypedReason) {
  const TrajectoryDataset data = MakeMiningData();
  NmEngine engine(data, MakeSpace());
  FaultScheduleOptions fo;
  fo.fail_rate = 1.0;
  FaultSchedule faults(fo);
  engine.set_alloc_fault_hook(
      [&faults](size_t) { return faults.ShouldFail(); });
  const MiningResult result = MineTrajPatterns(engine, MakeOptions());
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kAllocFailed);
  EXPECT_GT(faults.calls(), 0);

  // The per-pattern entry points have no Status channel: the same
  // failure surfaces as std::bad_alloc.
  const std::vector<CellId> cells = engine.TouchedCells();
  ASSERT_GE(cells.size(), 2u);
  const Pattern probe(std::vector<CellId>{cells[0], kWildcardCell, cells[1]});
  EXPECT_THROW(engine.NmTotal(probe), std::bad_alloc);

  // Clearing the hook heals the engine: the same instance then scores
  // the probe bit-identically to a fresh engine and mines the full
  // answer (nothing was left staged or torn by the failed warm-ups).
  engine.set_alloc_fault_hook(nullptr);
  const double healed_nm = engine.NmTotal(probe);
  const double fresh_nm = NmEngine(data, MakeSpace()).NmTotal(probe);
  EXPECT_EQ(std::memcmp(&healed_nm, &fresh_nm, sizeof(double)), 0);
  const MiningResult healed = MineTrajPatterns(engine, MakeOptions());
  EXPECT_FALSE(healed.stats.aborted);
  EXPECT_FALSE(healed.patterns.empty());
}

TEST(MinerRunControlTest, StoppedMinesCountOnlyCompletedScoring) {
  // The engine counts a chunk's candidates as scored (the
  // nm.candidates_scored counter and num_pattern_evaluations()) only
  // once the chunk completed, and the miner discards a stopped batch
  // whole.  After a stopped mine the engine count is therefore the
  // miner's candidates_evaluated plus the completed chunks of the
  // discarded batch; without a memory budget a batch is one chunk, so
  // the two are equal.
  PlantedPatternOptions po;
  po.pattern = {Point2(0.15, 0.15), Point2(0.45, 0.45), Point2(0.75, 0.75)};
  po.num_with_pattern = 60;
  po.num_background = 60;
  po.num_snapshots = 40;
  po.seed = 11;
  const TrajectoryDataset data = GeneratePlantedPatterns(po);
  const MiningSpace space = MakeSpace();
  obs::Counter* const scored_counter =
      obs::MetricsRegistry::Global().GetCounter("nm.candidates_scored");

  struct Outcome {
    MiningResult result;
    int64_t scored = 0;       // nm.candidates_scored delta
    int64_t evaluations = 0;  // engine.num_pattern_evaluations()
  };
  const auto mine = [&](const MinerOptions& opt, double cancel_after_ms,
                        bool cancel_in_first_warmup) {
    NmEngine engine(data, space);
    const CancellationToken token = opt.run.token;
    if (cancel_in_first_warmup) {
      // Fires while the first batch grows the arena, so the stop lands
      // inside that batch's warm-up.
      engine.set_alloc_fault_hook([token](size_t) {
        token.Cancel();
        return false;
      });
    }
    const int64_t before = scored_counter->Value();
    std::thread canceller;
    if (cancel_after_ms > 0.0) {
      canceller = std::thread([token, cancel_after_ms] {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(cancel_after_ms));
        token.Cancel();
      });
    }
    Outcome out;
    out.result = MineTrajPatterns(engine, opt);
    if (canceller.joinable()) canceller.join();
    out.scored = scored_counter->Value() - before;
    out.evaluations = engine.num_pattern_evaluations();
    return out;
  };
  const auto expect_counted = [](const Outcome& o, const std::string& what) {
    EXPECT_EQ(o.evaluations, o.result.stats.candidates_evaluated) << what;
#if TRAJPATTERN_OBS_ENABLED
    EXPECT_EQ(o.scored, o.result.stats.candidates_evaluated) << what;
#endif
  };

  {
    MinerOptions opt = MakeOptions();
    const Outcome o = mine(opt, 0.0, /*cancel_in_first_warmup=*/true);
    EXPECT_EQ(o.result.stats.stop_reason, StopReason::kCancelled);
    EXPECT_EQ(o.result.stats.candidates_evaluated, 0);
    expect_counted(o, "cancelled in the first warm-up");
  }
  // The whole mine takes about 10 ms on a desktop core; these stops land
  // in its first batches' warm-up and scoring, or after it finished.
  for (const double ms : {1.0, 4.0, 8.0}) {
    MinerOptions opt = MakeOptions();
    const Outcome cancelled = mine(opt, ms, false);
    expect_counted(cancelled, "cancelled after " + std::to_string(ms) + " ms");

    MinerOptions dl = MakeOptions();
    dl.run.SetDeadlineAfterMillis(ms);
    const Outcome deadline = mine(dl, 0.0, false);
    if (deadline.result.stats.aborted) {
      EXPECT_EQ(deadline.result.stats.stop_reason,
                StopReason::kDeadlineExceeded);
    }
    expect_counted(deadline, "deadline " + std::to_string(ms) + " ms");
  }

  // Under a memory budget a stopped batch may have completed chunks: the
  // engine counted them, the miner discarded them with the rest of the
  // batch, and they are fewer than one batch.
  for (const double ms : {4.0, 8.0, 30.0}) {
    MinerOptions opt = MakeOptions();
    opt.max_candidates_per_iteration = 400;
    opt.run.memory_budget_bytes =
        8 * static_cast<uint64_t>(data.TotalPoints() * sizeof(double));
    opt.run.SetDeadlineAfterMillis(ms);
    const Outcome o = mine(opt, 0.0, false);
    const int64_t evaluated = o.result.stats.candidates_evaluated;
    const int64_t batch_cap = static_cast<int64_t>(std::max<size_t>(
        o.result.stats.alphabet_size, opt.max_candidates_per_iteration));
    const std::string what = "budgeted deadline " + std::to_string(ms);
#if TRAJPATTERN_OBS_ENABLED
    EXPECT_EQ(o.scored, o.evaluations) << what;
#endif
    if (!o.result.stats.aborted) {
      EXPECT_EQ(o.evaluations, evaluated) << what;
      continue;
    }
    EXPECT_GE(o.evaluations, evaluated) << what;
    EXPECT_LT(o.evaluations - evaluated, batch_cap) << what;
  }

  // ω-pruned and budgeted: a stopped batch's completed chunks pruned
  // candidates the miner then discarded, and those prunes must not reach
  // the stats or a checkpoint, where pruned candidates are a subset of
  // the evaluated ones.  The deadlines are fractions of an unstopped
  // mine's time, most of which goes to the budgeted, warm-up-bound batch
  // after the singulars, so most stops land inside it.
  const auto pruned_options = [&data]() {
    MinerOptions opt = MakeOptions();
    opt.omega_pruning = true;
    opt.max_candidates_per_iteration = 400;
    opt.run.memory_budget_bytes =
        8 * static_cast<uint64_t>(data.TotalPoints() * sizeof(double));
    return opt;
  };
  const double full_ms = 1e3 * mine(pruned_options(), 0.0, false)
                                   .result.stats.seconds;
  for (const double fraction : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    MinerOptions opt = pruned_options();
    opt.run.SetDeadlineAfterMillis(fraction * full_ms);
    std::optional<MinerCheckpoint> last_cp;
    opt.checkpoint_sink = [&last_cp](const MinerCheckpoint& cp) {
      last_cp = cp;
      return true;
    };
    const Outcome o = mine(opt, 0.0, false);
    const MinerStats& stats = o.result.stats;
    const std::string what =
        "pruned budgeted deadline at " + std::to_string(fraction);
    EXPECT_LE(stats.candidates_pruned, stats.candidates_evaluated) << what;
    if (last_cp.has_value()) {
      EXPECT_LE(last_cp->candidates_pruned, last_cp->candidates_evaluated)
          << what;
      EXPECT_LE(last_cp->candidates_pruned, stats.candidates_pruned) << what;
    }
  }
}

// ------------------------------------------- baseline miners, same contract

TEST(BaselineStopTest, PbPrefixCapReportsThroughSharedStopFields) {
  const TrajectoryDataset data = MakeMiningData();
  NmEngine engine(data, MakeSpace());
  PbMinerOptions opt;
  opt.k = 10;
  opt.max_length = 4;
  opt.max_expanded_prefixes = 1;
  const PbMiningResult result = MinePbPatterns(engine, opt);
  EXPECT_TRUE(result.stats.hit_prefix_cap);
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kWorkCap);
}

TEST(BaselineStopTest, PbCancellationStopsTyped) {
  const TrajectoryDataset data = MakeMiningData();
  NmEngine engine(data, MakeSpace());
  PbMinerOptions opt;
  opt.k = 10;
  opt.max_length = 4;
  opt.run.token.Cancel();
  const PbMiningResult result = MinePbPatterns(engine, opt);
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kCancelled);
}

TEST(BaselineStopTest, MatchAprioriDeadlineStopsTyped) {
  const TrajectoryDataset data = MakeMiningData();
  NmEngine engine(data, MakeSpace());
  MatchMinerOptions opt;
  opt.run.SetDeadlineAfterMillis(-1.0);
  const MatchMiningResult result = MineMatchPatterns(engine, opt);
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kDeadlineExceeded);
}

// ----------------------------------------------------- mining supervisor

std::string TempCheckpointPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

TEST(MiningSupervisorTest, UninterruptedRunMatchesPlainMining) {
  const TrajectoryDataset data = MakeMiningData();
  const MiningSpace space = MakeSpace();
  NmEngine plain_engine(data, space);
  const MiningResult plain = MineTrajPatterns(plain_engine, MakeOptions());

  const std::string path = TempCheckpointPath("tp_supervisor_plain.ckpt");
  NmEngine engine(data, space);
  SupervisorOptions sup;
  sup.checkpoint_path = path;
  sup.miner = MakeOptions();
  MiningSupervisor supervisor(&engine, sup);
  const SupervisorReport report = supervisor.Run();
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_FALSE(report.resumed_from_checkpoint);
  EXPECT_EQ(report.restarts, 0);
  EXPECT_EQ(report.sink_attempt_failures, 0);
  ExpectBitIdentical(report.result.patterns, plain.patterns);
  // The final checkpoint is durable and well-formed.
  MinerCheckpoint cp;
  EXPECT_TRUE(ReadMinerCheckpointFile(path, &cp).ok());
  std::remove(path.c_str());
}

TEST(MiningSupervisorTest, RetriesTransientSinkFailuresWithBackoff) {
  const TrajectoryDataset data = MakeMiningData();
  const MiningSpace space = MakeSpace();
  NmEngine plain_engine(data, space);
  const MiningResult plain = MineTrajPatterns(plain_engine, MakeOptions());

  const std::string path = TempCheckpointPath("tp_supervisor_retry.ckpt");
  NmEngine engine(data, space);
  FaultScheduleOptions fo;
  fo.fail_first = 2;  // a two-write outage burst, then clean
  FaultSchedule faults(fo);
  std::vector<double> sleeps;
  SupervisorOptions sup;
  sup.checkpoint_path = path;
  sup.miner = MakeOptions();
  sup.checkpoint_retries = 3;
  sup.backoff_initial_ms = 1.0;
  sup.backoff_multiplier = 2.0;
  sup.sink_faults = &faults;
  sup.sleep_fn = [&sleeps](double ms) { sleeps.push_back(ms); };
  MiningSupervisor supervisor(&engine, sup);
  const SupervisorReport report = supervisor.Run();
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.restarts, 0);
  EXPECT_EQ(report.sink_attempt_failures, 2);
  EXPECT_EQ(report.sink_deliveries_retried, 1);
  // Exponential schedule: 1ms, then 2ms, within the first delivery.
  ASSERT_GE(sleeps.size(), 2u);
  EXPECT_DOUBLE_EQ(sleeps[0], 1.0);
  EXPECT_DOUBLE_EQ(sleeps[1], 2.0);
  EXPECT_DOUBLE_EQ(report.backoff_ms_total, 3.0);
  // The outage never changed the answer.
  ExpectBitIdentical(report.result.patterns, plain.patterns);
  std::remove(path.c_str());
}

TEST(MiningSupervisorTest, DeadSinkStopsAtLastDurableBoundary) {
  const TrajectoryDataset data = MakeMiningData();
  const std::string path = TempCheckpointPath("tp_supervisor_dead.ckpt");
  NmEngine engine(data, MakeSpace());
  FaultScheduleOptions fo;
  fo.fail_rate = 1.0;  // the sink never recovers
  FaultSchedule faults(fo);
  SupervisorOptions sup;
  sup.checkpoint_path = path;
  sup.miner = MakeOptions();
  sup.checkpoint_retries = 2;
  sup.sink_faults = &faults;
  sup.sleep_fn = [](double) {};
  MiningSupervisor supervisor(&engine, sup);
  const SupervisorReport report = supervisor.Run();
  EXPECT_EQ(report.status.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(report.result.stats.aborted);
  EXPECT_EQ(report.result.stats.stop_reason, StopReason::kSinkVeto);
  // 1 + retries attempts for the single delivery that was tried.
  EXPECT_EQ(report.sink_attempts, 3);
  EXPECT_EQ(report.sink_attempt_failures, 3);
  std::remove(path.c_str());
}

TEST(MiningSupervisorTest, ResumesFromExistingCheckpointFile) {
  const TrajectoryDataset data = MakeMiningData();
  const MiningSpace space = MakeSpace();
  const MinerOptions base = MakeOptions();
  NmEngine full_engine(data, space);
  const MiningResult full = MineTrajPatterns(full_engine, base);

  // A previous process "crashed" after persisting the iteration-1
  // boundary.
  const std::string path = TempCheckpointPath("tp_supervisor_resume.ckpt");
  {
    MinerOptions interrupted = base;
    interrupted.checkpoint_sink = [&path](const MinerCheckpoint& cp) {
      EXPECT_TRUE(WriteMinerCheckpointFile(cp, path).ok());
      return cp.iteration < 1;
    };
    NmEngine engine(data, space);
    const MiningResult partial = MineTrajPatterns(engine, interrupted);
    ASSERT_TRUE(partial.stats.aborted);
  }

  NmEngine engine(data, space);
  SupervisorOptions sup;
  sup.checkpoint_path = path;
  sup.miner = base;
  MiningSupervisor supervisor(&engine, sup);
  const SupervisorReport report = supervisor.Run();
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_TRUE(report.resumed_from_checkpoint);
  ExpectBitIdentical(report.result.patterns, full.patterns);
  std::remove(path.c_str());
}

TEST(MiningSupervisorTest, CorruptCheckpointFileSurfacesTypedError) {
  const TrajectoryDataset data = MakeMiningData();
  const std::string path = TempCheckpointPath("tp_supervisor_corrupt.ckpt");
  {
    FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("trajpattern_checkpoint,v2\niteration,garbage\n", f);
    std::fclose(f);
  }
  NmEngine engine(data, MakeSpace());
  SupervisorOptions sup;
  sup.checkpoint_path = path;
  sup.miner = MakeOptions();
  MiningSupervisor supervisor(&engine, sup);
  const SupervisorReport report = supervisor.Run();
  // Corruption is surfaced, never silently clobbered by a fresh run.
  EXPECT_EQ(report.status.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(report.resumed_from_checkpoint);
  std::remove(path.c_str());
}

TEST(MiningSupervisorTest, CrashLoopBeyondMaxRestartsFails) {
  const TrajectoryDataset data = MakeMiningData();
  const std::string path = TempCheckpointPath("tp_supervisor_crashloop.ckpt");
  NmEngine engine(data, MakeSpace());
  SupervisorOptions sup;
  sup.checkpoint_path = path;
  sup.miner = MakeOptions();
  sup.max_restarts = 1;
  sup.write_fn = [](const MinerCheckpoint&, const std::string&) -> Status {
    throw std::runtime_error("disk controller on fire");
  };
  sup.sleep_fn = [](double) {};
  MiningSupervisor supervisor(&engine, sup);
  const SupervisorReport report = supervisor.Run();
  EXPECT_EQ(report.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(report.restarts, 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace trajpattern

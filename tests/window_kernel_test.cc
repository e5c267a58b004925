// Tests of the window-scoring kernels: the tiled prefix-sharing batch
// kernel against the per-pattern gather reference and the gather batch,
// the ω-aware early-abandon contract, all-wildcard rejection, arena
// warm-up edge cases, and checkpoint v1/v2 compat.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/miner.h"
#include "core/mining_space.h"
#include "core/nm_engine.h"
#include "datagen/uniform_generator.h"
#include "io/checkpoint.h"
#include "obs/obs.h"
#include "prob/log_space.h"
#include "prob/rng.h"

namespace trajpattern {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitEqual(a[i], b[i])) return false;
  }
  return true;
}

TrajectoryDataset UniformData(int objects, int snapshots, uint64_t seed) {
  UniformGeneratorOptions opt;
  opt.num_objects = objects;
  opt.num_snapshots = snapshots;
  opt.seed = seed;
  return GenerateUniformObjects(opt);
}

/// A dataset with wildly varying trajectory lengths (including
/// single-snapshot and empty-window-count cases) so the kernels see
/// every too-short / exactly-one-window / many-windows branch.
TrajectoryDataset RaggedData(uint64_t seed) {
  Rng rng(seed);
  TrajectoryDataset d;
  const int lengths[] = {1, 2, 3, 1, 7, 4, 12, 1, 5};
  int id = 0;
  for (int len : lengths) {
    Trajectory t("t" + std::to_string(id++));
    for (int s = 0; s < len; ++s) {
      t.Append(Point2(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)), 0.05);
    }
    d.Add(std::move(t));
  }
  return d;
}

/// A pattern mix covering every kernel branch: singulars, runs, interior
/// wildcards, wildcard edges, and patterns longer than some (or all)
/// trajectories.
std::vector<Pattern> MixedPatterns(const NmEngine& engine) {
  const std::vector<CellId> cells = engine.TouchedCells();
  EXPECT_GE(cells.size(), 3u);
  const CellId a = cells[0];
  const CellId b = cells[1 % cells.size()];
  const CellId c = cells[2 % cells.size()];
  const CellId w = kWildcardCell;
  return {
      Pattern(a),
      Pattern(std::vector<CellId>{a, b}),
      Pattern(std::vector<CellId>{b, a, c}),
      Pattern(std::vector<CellId>{a, w, b}),
      Pattern(std::vector<CellId>{w, a, b, w}),
      Pattern(std::vector<CellId>{a, w, w, b, c}),
      Pattern(std::vector<CellId>{a, b, c, a, b, c, a, b}),
      Pattern(std::vector<CellId>{c, w, a, w, c, w, a, w, c, w, a, w, c}),
  };
}

/// The tiled batch kernel (`kStreaming`) at 1 and 4 threads against the
/// per-pattern gather reference, NM and Match, bitwise.
void ExpectTiledBatchMatchesReference(const TrajectoryDataset& d,
                                      const MiningSpace& space,
                                      const std::string& what) {
  NmEngine engine(d, space);
  const std::vector<Pattern> patterns = MixedPatterns(engine);
  std::vector<double> nm(patterns.size()), match(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    nm[i] = engine.NmTotal(patterns[i]);
    match[i] = engine.MatchTotal(patterns[i]);
  }
  for (int threads : {1, 4}) {
    const std::vector<double> nm_batch = engine.NmTotalBatch(patterns, threads);
    const std::vector<double> match_batch =
        engine.MatchTotalBatch(patterns, threads);
    for (size_t i = 0; i < patterns.size(); ++i) {
      EXPECT_TRUE(BitEqual(nm_batch[i], nm[i]))
          << what << " len " << patterns[i].length() << " at " << threads
          << " threads";
      EXPECT_TRUE(BitEqual(match_batch[i], match[i]))
          << what << " len " << patterns[i].length() << " at " << threads
          << " threads";
    }
  }
}

TEST(WindowKernelTest, StreamingMatchesGatherBitwise) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    ExpectTiledBatchMatchesReference(UniformData(12, 9, seed),
                                     MiningSpace(Grid::UnitSquare(6), 0.17),
                                     "seed " + std::to_string(seed));
  }
}

TEST(WindowKernelTest, StreamingMatchesGatherOnRaggedTrajectories) {
  ExpectTiledBatchMatchesReference(
      RaggedData(3), MiningSpace(Grid::UnitSquare(5), 0.2), "ragged");
}

TEST(WindowKernelTest, BatchMatchesSerialAcrossKernelsAndThreads) {
  const MiningSpace space(Grid::UnitSquare(6), 0.17);
  const TrajectoryDataset d = UniformData(20, 12, 11);
  NmEngine engine(d, space);
  const std::vector<Pattern> batch = MixedPatterns(engine);

  engine.set_window_kernel(WindowKernel::kGather);
  const std::vector<double> gather_1t = engine.NmTotalBatch(batch, 1);
  const std::vector<double> gather_8t = engine.NmTotalBatch(batch, 8);
  engine.set_window_kernel(WindowKernel::kStreaming);
  const std::vector<double> streaming_1t = engine.NmTotalBatch(batch, 1);
  const std::vector<double> streaming_8t = engine.NmTotalBatch(batch, 8);

  EXPECT_TRUE(BitEqual(gather_1t, gather_8t));
  EXPECT_TRUE(BitEqual(gather_1t, streaming_1t));
  EXPECT_TRUE(BitEqual(gather_1t, streaming_8t));

  // The per-pattern gather reference agrees with the batch too.
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(BitEqual(engine.NmTotal(batch[i]), streaming_1t[i]));
  }
}

TEST(WindowKernelTest, NoPruningDefaultLeavesStatsZero) {
  const MiningSpace space(Grid::UnitSquare(6), 0.17);
  const TrajectoryDataset d = UniformData(10, 8, 5);
  NmEngine engine(d, space);
  BatchScoreStats stats;
  engine.NmTotalBatch(MixedPatterns(engine), 1, &stats);
  EXPECT_EQ(stats.candidates_pruned, 0u);
  EXPECT_EQ(stats.trajectories_skipped, 0);
}

TEST(WindowKernelTest, PrunedScoresAreUpperBoundsBelowOmega) {
  const MiningSpace space(Grid::UnitSquare(8), 0.125);
  const TrajectoryDataset d = UniformData(40, 10, 9);
  NmEngine engine(d, space);
  std::vector<Pattern> batch;
  for (CellId c : engine.TouchedCells()) batch.push_back(Pattern(c));
  ASSERT_GE(batch.size(), 8u);

  const std::vector<double> exact = engine.NmTotalBatch(batch, 1);
  std::vector<double> sorted = exact;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  const double omega = sorted[4];  // a top-5 threshold

  BatchScoreStats stats;
  const std::vector<double> pruned =
      engine.NmTotalBatch(batch, 1, &stats, omega);
  ASSERT_EQ(pruned.size(), exact.size());

  EXPECT_GT(stats.candidates_pruned, 0u);
  EXPECT_GT(stats.trajectories_skipped, 0);
  size_t divergent = 0;
  for (size_t i = 0; i < exact.size(); ++i) {
    if (BitEqual(pruned[i], exact[i])) continue;
    ++divergent;
    // An abandoned scan returns a partial sum: an upper bound on the
    // exact NM that is itself below the threshold.
    EXPECT_GE(pruned[i], exact[i]);
    EXPECT_LT(pruned[i], omega);
  }
  // Every divergent score comes from an abandon; the reverse need not
  // hold (a skipped trajectory can contribute an exact 0.0 when its best
  // window probability rounds to 1, leaving the partial sum equal to the
  // exact total).
  EXPECT_LE(divergent, stats.candidates_pruned);
  // Anything at or above ω must come back exact (top-k preservation).
  for (size_t i = 0; i < exact.size(); ++i) {
    if (exact[i] >= omega) {
      EXPECT_TRUE(BitEqual(pruned[i], exact[i]));
    }
  }

  // Pruned batches are thread-count invariant like unpruned ones.
  BatchScoreStats stats8;
  const std::vector<double> pruned8 =
      engine.NmTotalBatch(batch, 8, &stats8, omega);
  EXPECT_TRUE(BitEqual(pruned, pruned8));
  EXPECT_EQ(stats.candidates_pruned, stats8.candidates_pruned);
  EXPECT_EQ(stats.trajectories_skipped, stats8.trajectories_skipped);
}

TEST(WindowKernelTest, PruningThresholdExactlyAtAScoreKeepsItExact) {
  // The abandon test is strict (< threshold): a candidate whose exact NM
  // *equals* the threshold is still a legitimate top-k member and must
  // come back bit-exact, including when the running partial sum lands on
  // the threshold mid-scan.  Probed at ω = an exact score and one ulp to
  // either side, wildcard-bearing patterns included.
  const MiningSpace space(Grid::UnitSquare(6), 0.17);
  const TrajectoryDataset d = UniformData(25, 10, 21);
  NmEngine engine(d, space);
  const std::vector<Pattern> batch = MixedPatterns(engine);
  const std::vector<double> exact = engine.NmTotalBatch(batch, 1);

  std::vector<double> finite;
  for (double v : exact) {
    if (std::isfinite(v)) finite.push_back(v);
  }
  ASSERT_GE(finite.size(), 2u);
  std::sort(finite.begin(), finite.end(), std::greater<double>());
  const double mid = finite[finite.size() / 2];

  for (const double omega :
       {mid, std::nextafter(mid, kNegInf),
        std::nextafter(mid, std::numeric_limits<double>::infinity())}) {
    BatchScoreStats stats;
    const std::vector<double> pruned =
        engine.NmTotalBatch(batch, 1, &stats, omega);
    ASSERT_EQ(pruned.size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      if (exact[i] >= omega) {
        EXPECT_TRUE(BitEqual(pruned[i], exact[i]))
            << "pattern " << i << " at/above omega came back inexact";
      } else if (!BitEqual(pruned[i], exact[i])) {
        EXPECT_GE(pruned[i], exact[i]);
        EXPECT_LT(pruned[i], omega);
      }
    }
  }
}

TEST(WindowKernelTest, PruningHandlesNegInfScoresAndColumns) {
  // A trajectory pinned far outside a pattern's cells yields -inf window
  // probabilities; the 4-accumulator max scan and the abandon test must
  // treat those columns as "contributes nothing", not poison neighbors.
  TrajectoryDataset d = RaggedData(3);
  Trajectory far("far");
  for (int s = 0; s < 6; ++s) {
    far.Append(Point2(1e3 + s, 1e3), 1e-9);  // hopeless for any unit cell
  }
  d.Add(std::move(far));
  const MiningSpace space(Grid::UnitSquare(5), 0.2);
  NmEngine engine(d, space);
  const std::vector<Pattern> batch = MixedPatterns(engine);
  const std::vector<double> exact = engine.NmTotalBatch(batch, 1);
  // Any threshold, including -inf itself (nothing compares below it, so
  // nothing may be abandoned) must preserve the contract.
  for (const double omega : {kNegInf, -1e12, exact[0]}) {
    BatchScoreStats stats;
    const std::vector<double> pruned =
        engine.NmTotalBatch(batch, 1, &stats, omega);
    const std::vector<double> pruned8 =
        engine.NmTotalBatch(batch, 8, nullptr, omega);
    EXPECT_TRUE(BitEqual(pruned, pruned8));
    for (size_t i = 0; i < exact.size(); ++i) {
      if (!BitEqual(pruned[i], exact[i])) {
        EXPECT_GE(pruned[i], exact[i]);
        EXPECT_LT(pruned[i], omega);
      }
    }
    if (BitEqual(omega, kNegInf)) {
      EXPECT_TRUE(BitEqual(pruned, exact));
    }
  }
}

TEST(WindowKernelTest, MinerOmegaPruningPreservesTopK) {
  const MiningSpace space(Grid::UnitSquare(6), 0.17);
  const TrajectoryDataset d = UniformData(30, 12, 21);

  // Exact mining, then binding beams (every benchmark workload is a beam
  // run).  Under a beam, pruned bounds in the memo can change which
  // candidates are staged, so identity there is observed, not proven;
  // these cases pin it.
  struct Case {
    size_t beam;
    size_t min_length;
    size_t max_pattern_length;
  };
  for (const Case c : {Case{0, 0, 3}, Case{8, 0, 3}, Case{4, 2, 4}}) {
    const std::string what = "beam " + std::to_string(c.beam) +
                             " min_length " + std::to_string(c.min_length);
    MinerOptions opt;
    opt.k = 5;
    opt.min_length = c.min_length;
    opt.max_pattern_length = c.max_pattern_length;
    opt.max_candidates_per_iteration = c.beam;

    NmEngine exact_engine(d, space);
    const MiningResult exact = MineTrajPatterns(exact_engine, opt);
    EXPECT_EQ(exact.stats.candidates_pruned, 0) << what;
    EXPECT_EQ(exact.stats.hit_candidate_cap, c.beam > 0) << what;

    opt.omega_pruning = true;
    NmEngine pruned_engine(d, space);
    const MiningResult pruned = MineTrajPatterns(pruned_engine, opt);
    EXPECT_EQ(pruned.stats.hit_candidate_cap, c.beam > 0) << what;

    ASSERT_EQ(exact.patterns.size(), pruned.patterns.size()) << what;
    for (size_t i = 0; i < exact.patterns.size(); ++i) {
      EXPECT_EQ(exact.patterns[i].pattern, pruned.patterns[i].pattern)
          << what;
      EXPECT_TRUE(BitEqual(exact.patterns[i].nm, pruned.patterns[i].nm))
          << what;
    }
    EXPECT_GT(pruned.stats.candidates_pruned, 0) << what;
    EXPECT_GT(pruned.stats.trajectories_skipped, 0) << what;
  }
}

/// A dataset spanning several tiles of the batch kernel, which cuts the
/// trajectories into tiles of about 4096 points: 15,268 points in all,
/// one 5000-point trajectory (longer than a tile, so a tile alone), and
/// trajectories of 1-3 points, shorter than most patterns.  Random walks
/// so some cells score well.
TrajectoryDataset TiledData(uint64_t seed) {
  std::vector<int> lengths;
  for (int i = 0; i < 30; ++i) lengths.push_back(60 + 17 * (i % 9));
  lengths.insert(lengths.begin() + 7, 5000);
  for (int len : {1, 2, 3, 1}) lengths.push_back(len);
  for (int i = 0; i < 40; ++i) lengths.push_back(100 + 11 * (i % 13));
  Rng rng(seed);
  TrajectoryDataset d;
  int id = 0;
  for (int len : lengths) {
    Trajectory t("t" + std::to_string(id++));
    double x = rng.Uniform(0.0, 1.0);
    double y = rng.Uniform(0.0, 1.0);
    for (int s = 0; s < len; ++s) {
      x = std::clamp(x + rng.Uniform(-0.08, 0.08), 0.0, 1.0);
      y = std::clamp(y + rng.Uniform(-0.08, 0.08), 0.0, 1.0);
      t.Append(Point2(x, y), 0.05);
    }
    d.Add(std::move(t));
  }
  EXPECT_GT(d.TotalPoints(), 3u * 4096u);
  return d;
}

/// A shuffled batch shaped like the miner's: families of candidates
/// sharing a prefix (the sorted kernel reuses its window sums), mixed
/// lengths 1-7, leading, trailing and interior wildcards, patterns with a
/// single specified position, and duplicates.  Every pattern has at
/// least one specified position.
std::vector<Pattern> TiledBatch(const NmEngine& engine, uint64_t seed) {
  const std::vector<CellId> cells = engine.TouchedCells();
  EXPECT_GE(cells.size(), 4u);
  Rng rng(seed);
  const auto cell = [&] {
    return cells[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int>(cells.size()) - 1))];
  };
  const auto random_run = [&](int len) {
    std::vector<CellId> run;
    for (int j = 0; j < len; ++j) {
      run.push_back(rng.Bernoulli(0.25) ? kWildcardCell : cell());
    }
    return run;
  };
  const CellId w = kWildcardCell;
  const CellId a = cells[0];
  const CellId b = cells[1];
  std::vector<Pattern> batch = {
      Pattern(a),
      Pattern(std::vector<CellId>{w, a}),
      Pattern(std::vector<CellId>{a, w}),
      Pattern(std::vector<CellId>{w, a, w}),
      Pattern(std::vector<CellId>{w, w, a, b}),
      Pattern(std::vector<CellId>{a, b, w, w}),
      Pattern(std::vector<CellId>{a, w, w, b}),
      Pattern(std::vector<CellId>{a, w, b, w, a, w, b}),
  };
  for (int family = 0; family < 12; ++family) {
    const std::vector<CellId> prefix = random_run(rng.UniformInt(1, 4));
    for (int sibling = 0; sibling < 10; ++sibling) {
      std::vector<CellId> cand = prefix;
      for (CellId c : random_run(rng.UniformInt(1, 3))) cand.push_back(c);
      cand.back() = rng.Bernoulli(0.2) ? kWildcardCell : cand.back();
      if (std::all_of(cand.begin(), cand.end(),
                      [](CellId c) { return c == kWildcardCell; })) {
        cand.front() = cell();
      }
      batch.push_back(Pattern(cand));
    }
  }
  for (int i = 0; i < 20; ++i) batch.push_back(batch[static_cast<size_t>(i * 5)]);
  for (size_t i = batch.size(); i > 1; --i) {
    std::swap(batch[i - 1], batch[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int>(i) - 1))]);
  }
  return batch;
}

TEST(WindowKernelTest, TiledBatchMatchesPerPatternAndGatherBitwise) {
  const MiningSpace space(Grid::UnitSquare(6), 0.17);
  const TrajectoryDataset d = TiledData(3);
  NmEngine engine(d, space);
  const std::vector<Pattern> batch = TiledBatch(engine, 5);

  std::vector<double> nm(batch.size()), match(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    nm[i] = engine.NmTotal(batch[i]);
    match[i] = engine.MatchTotal(batch[i]);
  }
  engine.set_window_kernel(WindowKernel::kGather);
  EXPECT_TRUE(BitEqual(engine.NmTotalBatch(batch, 1), nm));
  EXPECT_TRUE(BitEqual(engine.MatchTotalBatch(batch, 1), match));
  engine.set_window_kernel(WindowKernel::kStreaming);
  for (int threads : {1, 4}) {
    const std::vector<double> nm_batch = engine.NmTotalBatch(batch, threads);
    const std::vector<double> match_batch =
        engine.MatchTotalBatch(batch, threads);
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(BitEqual(nm_batch[i], nm[i]))
          << batch[i].ToString() << " at " << threads << " threads";
      EXPECT_TRUE(BitEqual(match_batch[i], match[i]))
          << batch[i].ToString() << " at " << threads << " threads";
    }
  }
}

TEST(WindowKernelTest, TiledBatchUnderMemoryBudgetIsBitIdentical) {
  const MiningSpace space(Grid::UnitSquare(6), 0.17);
  const TrajectoryDataset d = TiledData(4);
  NmEngine reference(d, space);
  std::vector<Pattern> batch = TiledBatch(reference, 6);
  batch.resize(60);  // every chunk re-warms its columns: keep it short
  const std::vector<double> want_nm = reference.NmTotalBatch(batch, 1);
  const std::vector<double> want_match = reference.MatchTotalBatch(batch, 1);

  for (int threads : {1, 4}) {
    NmEngine engine(d, space);
    RunContext run;
    run.memory_budget_bytes = 8 * engine.column_bytes();
    BatchScoreStats stats;
    EXPECT_TRUE(BitEqual(
        engine.NmTotalBatch(batch, threads, &stats, NmEngine::kNoPruning, &run),
        want_nm));
    EXPECT_EQ(stats.stop, StopReason::kNone);
    EXPECT_GT(stats.chunks, 1);
    EXPECT_EQ(engine.num_pattern_evaluations(),
              static_cast<int64_t>(batch.size()));
    EXPECT_TRUE(
        BitEqual(engine.MatchTotalBatch(batch, threads, nullptr, &run),
                 want_match));
    EXPECT_LE(engine.arena_peak_bytes(), run.memory_budget_bytes);
  }
}

TEST(WindowKernelTest, BudgetPlannerWarmsInterleavedDisjointGroupsOnce) {
  // Two disjoint groups of exactly `budget` cells, their candidates
  // interleaved in staged order.  Cutting the batch in staged order
  // would mix the groups in every chunk and re-warm them over and over;
  // the planner fills one chunk per group and warms each cell once.
  const MiningSpace space(Grid::UnitSquare(6), 0.17);
  const TrajectoryDataset d = TiledData(4);
  NmEngine reference(d, space);
  const std::vector<CellId> cells = reference.TouchedCells();
  constexpr size_t kBudget = 5;
  ASSERT_GE(cells.size(), 2 * kBudget);
  std::vector<Pattern> batch;
  for (size_t i = 0; i < kBudget; ++i) {
    for (size_t group = 0; group < 2; ++group) {
      const CellId* g = cells.data() + group * kBudget;
      batch.push_back(Pattern(std::vector<CellId>{g[i], g[(i + 1) % kBudget]}));
      batch.push_back(Pattern(
          std::vector<CellId>{g[(i + 2) % kBudget], kWildcardCell, g[i]}));
    }
  }
  const std::vector<double> want = reference.NmTotalBatch(batch, 1);

  NmEngine engine(d, space);
  RunContext run;
  run.memory_budget_bytes = kBudget * engine.column_bytes();
  BatchScoreStats stats;
  EXPECT_TRUE(BitEqual(
      engine.NmTotalBatch(batch, 1, &stats, NmEngine::kNoPruning, &run),
      want));
  EXPECT_EQ(stats.stop, StopReason::kNone);
  EXPECT_EQ(stats.chunks, 2);
  EXPECT_EQ(stats.cells_warmed, 2 * kBudget);
  EXPECT_EQ(stats.cells_evicted, kBudget);
  EXPECT_LE(engine.arena_peak_bytes(), run.memory_budget_bytes);
}

TEST(WindowKernelTest, BudgetedShuffledBatchMatchesUnbudgetedBitwise) {
  // Chunking is scheduling only: a shuffled batch under a budget scores
  // every candidate, pruned or exact, bit-identically to the unbudgeted
  // call, at its own staged position, at any thread count.
  const MiningSpace space(Grid::UnitSquare(6), 0.17);
  const TrajectoryDataset d = TiledData(6);
  NmEngine reference(d, space);
  std::vector<Pattern> batch = TiledBatch(reference, 12);
  batch.resize(70);
  std::vector<size_t> perm(batch.size());
  std::iota(perm.begin(), perm.end(), size_t{0});
  Rng rng(21);
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[static_cast<size_t>(rng.UniformInt(
                               0, static_cast<int>(i) - 1))]);
  }
  std::vector<Pattern> shuffled;
  for (size_t i : perm) shuffled.push_back(batch[i]);
  const std::vector<double> exact = reference.NmTotalBatch(batch, 1);
  std::vector<double> sorted = exact;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  const double omega = sorted[sorted.size() / 3];

  for (const double prune_below : {NmEngine::kNoPruning, omega}) {
    BatchScoreStats want_stats;
    const std::vector<double> want =
        reference.NmTotalBatch(batch, 1, &want_stats, prune_below);
    if (prune_below == omega) ASSERT_GT(want_stats.candidates_pruned, 0u);
    for (int threads : {1, 4}) {
      NmEngine engine(d, space);
      RunContext run;
      run.memory_budget_bytes = 8 * engine.column_bytes();
      BatchScoreStats stats;
      const std::vector<double> got =
          engine.NmTotalBatch(shuffled, threads, &stats, prune_below, &run);
      ASSERT_EQ(stats.stop, StopReason::kNone);
      EXPECT_GT(stats.chunks, 1);
      for (size_t i = 0; i < shuffled.size(); ++i) {
        EXPECT_TRUE(BitEqual(got[i], want[perm[i]]))
            << shuffled[i].ToString() << " at " << threads << " threads";
      }
      EXPECT_EQ(stats.candidates_pruned, want_stats.candidates_pruned);
      EXPECT_EQ(stats.trajectories_skipped, want_stats.trajectories_skipped);
      EXPECT_LE(engine.arena_peak_bytes(), run.memory_budget_bytes);
    }
  }
}

TEST(WindowKernelTest, PatternOverflowingTheBudgetStopsTheBatch) {
  // Three distinct cells against a two-column budget: no plan can hold
  // the pattern, so the call stops typed before anything is scored.
  const MiningSpace space(Grid::UnitSquare(6), 0.17);
  const TrajectoryDataset d = TiledData(4);
  NmEngine engine(d, space);
  const std::vector<CellId> cells = engine.TouchedCells();
  ASSERT_GE(cells.size(), 3u);
  const std::vector<Pattern> batch = {
      Pattern(std::vector<CellId>{cells[0], cells[1]}),
      Pattern(std::vector<CellId>{cells[0], cells[1], cells[2]}),
      Pattern(cells[2]),
  };
  RunContext run;
  run.memory_budget_bytes = 2 * engine.column_bytes();
  BatchScoreStats stats;
  engine.NmTotalBatch(batch, 1, &stats, NmEngine::kNoPruning, &run);
  EXPECT_EQ(stats.stop, StopReason::kMemoryBudgetExceeded);
  EXPECT_EQ(stats.cells_warmed, 0u);
  EXPECT_EQ(engine.num_pattern_evaluations(), 0);
  EXPECT_EQ(engine.num_cached_cells(), 0u);
}

TEST(WindowKernelTest, BudgetPlanDoesNotDependOnThreadCount) {
  // Plans follow the resident set, which follows the request history
  // alone: a run of budgeted batches warms, evicts and chunks the same
  // at 1 and 8 threads.
  const MiningSpace space(Grid::UnitSquare(6), 0.17);
  const TrajectoryDataset d = TiledData(5);
  NmEngine serial(d, space);
  NmEngine threaded(d, space);
  RunContext run;
  run.memory_budget_bytes = 9 * serial.column_bytes();
  size_t warmed = 0;
  for (uint64_t seed : {31, 32, 33}) {
    std::vector<Pattern> batch = TiledBatch(serial, seed);
    batch.resize(50);
    BatchScoreStats one, eight;
    const std::vector<double> a =
        serial.NmTotalBatch(batch, 1, &one, NmEngine::kNoPruning, &run);
    const std::vector<double> b =
        threaded.NmTotalBatch(batch, 8, &eight, NmEngine::kNoPruning, &run);
    EXPECT_TRUE(BitEqual(a, b)) << "seed " << seed;
    EXPECT_EQ(one.cells_warmed, eight.cells_warmed) << "seed " << seed;
    EXPECT_EQ(one.cells_evicted, eight.cells_evicted) << "seed " << seed;
    EXPECT_EQ(one.chunks, eight.chunks) << "seed " << seed;
    EXPECT_EQ(one.factor_passes, eight.factor_passes) << "seed " << seed;
    warmed += one.cells_warmed;
  }
  EXPECT_GT(warmed, 9u);
}

TEST(WindowKernelTest, FactorPassesCountDistinctGridColumnsAndRows) {
  // One NormalIntervalProbBatch pass per distinct grid column and row
  // among the missing cells; a resident re-warm runs none.
  const MiningSpace space(Grid::UnitSquare(6), 0.17);
  const TrajectoryDataset d = UniformData(5, 8, 3);
  NmEngine engine(d, space);
  const Grid& g = space.grid;
  NmEngine::WarmStats ws;
  EXPECT_EQ(engine.WarmCells({g.At(0, 0), g.At(0, 1), g.At(1, 0), g.At(1, 0)},
                             1, &ws),
            3u);
  EXPECT_EQ(ws.factor_passes, 4u);  // columns {0, 1} and rows {0, 1}
  EXPECT_EQ(engine.WarmCells({g.At(0, 0), g.At(4, 4)}, 1, &ws), 1u);
  EXPECT_EQ(ws.factor_passes, 2u);
  EXPECT_EQ(engine.WarmCells({g.At(4, 4)}, 1, &ws), 0u);
  EXPECT_EQ(ws.factor_passes, 0u);

  BatchScoreStats stats;
  engine.NmTotalBatch({Pattern(std::vector<CellId>{g.At(2, 3), g.At(2, 5)})},
                      1, &stats);
  EXPECT_EQ(stats.cells_warmed, 2u);
  EXPECT_EQ(stats.factor_passes, 3u);  // column 2, rows {3, 5}
}

TEST(WindowKernelTest, TiledPruningAbandonsWhereAPerTrajectoryScanWould) {
  // The reference abandon: add Nm(p, i) over i = 0, 1, ... and stop as
  // soon as the running sum is below ω with trajectories left.  The
  // tiled kernel checks after every trajectory too, so its pruned scores
  // and skip counts match this exactly, at any thread count.
  const MiningSpace space(Grid::UnitSquare(6), 0.17);
  const TrajectoryDataset d = TiledData(7);
  NmEngine engine(d, space);
  const std::vector<Pattern> batch = TiledBatch(engine, 8);
  std::vector<double> exact = engine.NmTotalBatch(batch, 1);
  std::vector<double> sorted = exact;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  const double omega = sorted[10];

  std::vector<double> want(batch.size());
  size_t want_pruned = 0;
  int64_t want_skipped = 0;
  for (size_t k = 0; k < batch.size(); ++k) {
    double sum = 0.0;
    for (size_t i = 0; i < d.size(); ++i) {
      sum += engine.Nm(batch[k], i);
      if (sum < omega && i + 1 < d.size()) {
        ++want_pruned;
        want_skipped += static_cast<int64_t>(d.size() - i - 1);
        break;
      }
    }
    want[k] = sum;
  }
  ASSERT_GT(want_pruned, 0u);
  for (int threads : {1, 4}) {
    BatchScoreStats stats;
    EXPECT_TRUE(
        BitEqual(engine.NmTotalBatch(batch, threads, &stats, omega), want))
        << threads << " threads";
    EXPECT_EQ(stats.candidates_pruned, want_pruned);
    EXPECT_EQ(stats.trajectories_skipped, want_skipped);
  }
}

TEST(WindowKernelTest, CancelBetweenTilesDiscardsOnlyTheStoppedBatch) {
  // A canceller thread trips the token while the tiled kernel runs (the
  // columns are pre-warmed, so the batch is all scoring).  The stopped
  // batch counts nothing as scored, and the engine's next batch is exact.
  const MiningSpace space(Grid::UnitSquare(6), 0.17);
  const TrajectoryDataset d = TiledData(9);
  NmEngine engine(d, space);
  const std::vector<Pattern> family = TiledBatch(engine, 10);
  std::vector<Pattern> batch;
  for (int rep = 0; rep < 40; ++rep) {
    batch.insert(batch.end(), family.begin(), family.end());
  }
  std::vector<double> want(family.size());
  for (size_t i = 0; i < family.size(); ++i) want[i] = engine.NmTotal(family[i]);
  const int64_t evaluations = engine.num_pattern_evaluations();
#if TRAJPATTERN_OBS_ENABLED
  obs::Counter* const scored =
      obs::MetricsRegistry::Global().GetCounter("nm.candidates_scored");
  const int64_t scored_before = scored->Value();
#endif

  RunContext run;
  const CancellationToken token = run.token;
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.Cancel();
  });
  BatchScoreStats stats;
  engine.NmTotalBatch(batch, 1, &stats, NmEngine::kNoPruning, &run);
  canceller.join();
  if (stats.stop == StopReason::kCancelled) {
    EXPECT_EQ(engine.num_pattern_evaluations(), evaluations);
#if TRAJPATTERN_OBS_ENABLED
    EXPECT_EQ(scored->Value(), scored_before);
#endif
  } else {
    // The batch outran the canceller: it must then be complete.
    EXPECT_EQ(stats.stop, StopReason::kNone);
    EXPECT_EQ(engine.num_pattern_evaluations(),
              evaluations + static_cast<int64_t>(batch.size()));
  }
  EXPECT_TRUE(BitEqual(engine.NmTotalBatch(family, 1), want));
}

TEST(WindowKernelTest, AllWildcardPatternsAreRejected) {
  const MiningSpace space(Grid::UnitSquare(4), 0.25);
  const TrajectoryDataset d = UniformData(4, 5, 13);
  NmEngine engine(d, space);

  const Pattern empty{std::vector<CellId>{}};
  const Pattern stars(std::vector<CellId>{kWildcardCell, kWildcardCell});
  EXPECT_EQ(NmEngine::ValidateScorable(empty).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(NmEngine::ValidateScorable(stars).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(NmEngine::ValidateScorable(Pattern(CellId{0})).ok());
  EXPECT_TRUE(
      NmEngine::ValidateScorable(Pattern(std::vector<CellId>{0, kWildcardCell}))
          .ok());

  // The NM entry points reject by value (-inf: unreachable by any real
  // pattern) rather than dividing by the zero specified-count.
  EXPECT_EQ(engine.NmTotal(stars), kNegInf);
  EXPECT_EQ(engine.Nm(stars, 0), kNegInf);
  for (WindowKernel k : {WindowKernel::kStreaming, WindowKernel::kGather}) {
    engine.set_window_kernel(k);
    const std::vector<double> batch =
        engine.NmTotalBatch({Pattern(CellId{0}), stars});
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_GT(batch[0], kNegInf);
    EXPECT_EQ(batch[1], kNegInf);
  }

  // Match does not normalize: the all-wildcard pattern stays defined and
  // scores 1 per trajectory long enough to host a window.
  EXPECT_EQ(engine.MatchTotal(stars), static_cast<double>(d.size()));
}

TEST(WindowKernelTest, EmptyDatasetScoresZeroAndWarmsNothing) {
  const MiningSpace space(Grid::UnitSquare(4), 0.25);
  const TrajectoryDataset d;
  NmEngine engine(d, space);
  EXPECT_TRUE(engine.TouchedCells().empty());
  EXPECT_EQ(engine.WarmCells({0, 1, 2}), 3u);
  EXPECT_EQ(engine.num_cached_cells(), 3u);
  // Zero-length columns: scoring sums over no trajectories.
  EXPECT_EQ(engine.NmTotal(Pattern(CellId{0})), 0.0);
  EXPECT_EQ(engine.MatchTotal(Pattern(CellId{0})), 0.0);
}

TEST(WindowKernelTest, SingleSnapshotTrajectoriesFloorLongPatterns) {
  const MiningSpace space(Grid::UnitSquare(4), 0.25);
  TrajectoryDataset d;
  for (int i = 0; i < 3; ++i) {
    Trajectory t("t" + std::to_string(i));
    t.Append(Point2(0.3, 0.3), 0.05);
    d.Add(std::move(t));
  }
  NmEngine engine(d, space);
  const CellId c = space.grid.CellOf(Point2(0.3, 0.3));
  // A length-2 pattern fits no window: every trajectory contributes the
  // log floor to NM and 0 to match.
  const Pattern pair(std::vector<CellId>{c, c});
  EXPECT_EQ(engine.NmTotal(pair), 3.0 * LogFloor());
  EXPECT_EQ(engine.MatchTotal(pair), 0.0);
  // Singulars still score normally.
  EXPECT_GT(engine.NmTotal(Pattern(c)), 3.0 * LogFloor());
}

TEST(WindowKernelTest, RewarmingIsANoOp) {
  const MiningSpace space(Grid::UnitSquare(4), 0.25);
  const TrajectoryDataset d = UniformData(6, 6, 17);
  NmEngine engine(d, space);
  const std::vector<CellId> cells = engine.TouchedCells();
  ASSERT_GE(cells.size(), 2u);

  const std::vector<CellId> two{cells[0], cells[1]};
  EXPECT_EQ(engine.WarmCells(two), 2u);
  EXPECT_EQ(engine.num_cached_cells(), 2u);
  // Re-warming (with duplicates) adds nothing and grows nothing.
  EXPECT_EQ(engine.WarmCells({cells[0], cells[1], cells[0]}), 0u);
  EXPECT_EQ(engine.num_cached_cells(), 2u);
  // A batch over warmed-plus-new cells warms exactly the new ones.
  BatchScoreStats stats;
  engine.NmTotalBatch(MixedPatterns(engine), 1, &stats);
  EXPECT_EQ(engine.num_cached_cells(), 2u + stats.cells_warmed);
  EXPECT_GT(stats.cells_warmed, 0u);
}

TEST(WindowKernelTest, WarmingEmptyCellListIsANoOp) {
  const MiningSpace space(Grid::UnitSquare(4), 0.25);
  const TrajectoryDataset d = UniformData(4, 5, 19);
  NmEngine engine(d, space);
  NmEngine::WarmStats stats;
  EXPECT_EQ(engine.WarmCells({}, 4, &stats), 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(engine.num_cached_cells(), 0u);
  // A wildcard-only request is equally empty: wildcards have no column.
  EXPECT_EQ(engine.WarmCells({kWildcardCell, kWildcardCell}, 1, &stats), 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(WindowKernelTest, WarmStatsSplitHitsAndMisses) {
  const MiningSpace space(Grid::UnitSquare(4), 0.25);
  const TrajectoryDataset d = UniformData(6, 6, 17);
  NmEngine engine(d, space);
  const std::vector<CellId> cells = engine.TouchedCells();
  ASSERT_GE(cells.size(), 2u);

  NmEngine::WarmStats stats;
  // Cold: an in-request duplicate counts as a hit (staged by the same
  // call), the two distinct cells as misses.
  EXPECT_EQ(engine.WarmCells({cells[0], cells[1], cells[0]}, 1, &stats), 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  // Warm: every request is a hit, nothing is materialized.
  EXPECT_EQ(engine.WarmCells({cells[1], cells[0]}, 1, &stats), 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 2u);

  // The batch stats surface the same split: a second identical batch
  // warms nothing and reports every cell request as a hit.
  BatchScoreStats cold, warm;
  const std::vector<Pattern> patterns = MixedPatterns(engine);
  engine.NmTotalBatch(patterns, 1, &cold);
  engine.NmTotalBatch(patterns, 1, &warm);
  EXPECT_EQ(warm.cells_warmed, 0u);
  EXPECT_EQ(warm.cells_hit, cold.cells_hit + cold.cells_warmed);
}

TEST(WindowKernelTest, WarmOrderAndThreadCountDoNotChangeScores) {
  const MiningSpace space(Grid::UnitSquare(5), 0.2);
  const TrajectoryDataset d = UniformData(12, 9, 29);
  NmEngine reference(d, space);
  const std::vector<CellId> cells = reference.TouchedCells();
  ASSERT_GE(cells.size(), 3u);
  const std::vector<Pattern> patterns = MixedPatterns(reference);
  reference.WarmCells(cells, 1);
  const std::vector<double> want = reference.NmTotalBatch(patterns, 1);

  Rng rng(31);
  for (int threads : {1, 2, 4}) {
    std::vector<CellId> shuffled = cells;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1],
                shuffled[static_cast<size_t>(
                    rng.UniformInt(0, static_cast<int>(i) - 1))]);
    }
    NmEngine engine(d, space);
    EXPECT_EQ(engine.WarmCells(shuffled, threads), cells.size());
    EXPECT_TRUE(BitEqual(engine.NmTotalBatch(patterns, threads), want))
        << threads << " threads, shuffled warm order";
  }
}

/// NM(p) point at a time from `MiningSpace::LogProb`, in the engine's
/// reduction order: ascending position inside a window, first maximal
/// window, trajectories in order.
double LogProbNmTotal(const TrajectoryDataset& d, const MiningSpace& space,
                      const Pattern& p) {
  const double spec = static_cast<double>(p.SpecifiedCount());
  double total = 0.0;
  for (const Trajectory& t : d) {
    if (t.size() < p.length()) {
      total += LogFloor();
      continue;
    }
    double best = kNegInf;
    for (size_t k = 0; k + p.length() <= t.size(); ++k) {
      double sum = 0.0;
      for (size_t j = 0; j < p.length(); ++j) {
        if (p[j] != kWildcardCell) sum += space.LogProb(t[k + j], p[j]);
      }
      if (sum > best) best = sum;
    }
    total += best / spec;
  }
  return total;
}

TEST(WindowKernelTest, FactoredWarmupMatchesLazySerialPath) {
  // WarmCells materializes rectangular columns through the x/y-factored
  // path and radial ones through the batched Rice-CDF pass.  Either way
  // the scores must be bit-identical to a serial point-at-a-time NM
  // built from MiningSpace::LogProb.
  for (const IndifferenceModel model :
       {IndifferenceModel::kRectangular, IndifferenceModel::kRadial}) {
    const MiningSpace space(Grid::UnitSquare(4), 0.25, model);
    const TrajectoryDataset d = UniformData(8, 7, 37);
    NmEngine warmed(d, space);
    const std::vector<Pattern> patterns = MixedPatterns(warmed);
    std::vector<double> want(patterns.size());
    for (size_t i = 0; i < patterns.size(); ++i) {
      want[i] = LogProbNmTotal(d, space, patterns[i]);
    }
    warmed.WarmCells(warmed.TouchedCells(), 4);
    const std::vector<double> got = warmed.NmTotalBatch(patterns, 4);
    EXPECT_TRUE(BitEqual(got, want))
        << (model == IndifferenceModel::kRadial ? "radial" : "rectangular");
  }
}

TEST(WindowKernelTest, CheckpointV2RoundTripsWorkCounters) {
  MinerCheckpoint cp;
  cp.iteration = 3;
  cp.k = 5;
  cp.omega = -12.5;
  cp.candidates_evaluated = 12345;
  cp.candidates_pruned = 678;
  cp.scores.push_back({Pattern(std::vector<CellId>{1, kWildcardCell, 2}),
                       -13.25});
  cp.prev_high.push_back(Pattern(CellId{1}));
  cp.prev_queue.push_back(Pattern(CellId{2}));

  std::stringstream ss;
  ASSERT_TRUE(WriteMinerCheckpoint(cp, ss).ok());
  EXPECT_NE(ss.str().find("trajpattern_checkpoint,v2"), std::string::npos);

  MinerCheckpoint back;
  ASSERT_TRUE(ReadMinerCheckpoint(ss, &back).ok());
  EXPECT_EQ(back.iteration, 3);
  EXPECT_EQ(back.k, 5);
  EXPECT_EQ(back.candidates_evaluated, 12345);
  EXPECT_EQ(back.candidates_pruned, 678);
  ASSERT_EQ(back.scores.size(), 1u);
  EXPECT_EQ(back.scores[0].pattern, cp.scores[0].pattern);
  EXPECT_TRUE(BitEqual(back.scores[0].nm, cp.scores[0].nm));
}

TEST(WindowKernelTest, CheckpointReaderAcceptsV1WithZeroCounters) {
  // A v1 file as written before the work counters existed: no
  // candidates_evaluated / candidates_pruned lines.
  const std::string v1 =
      "trajpattern_checkpoint,v1\n"
      "iteration,2\n"
      "k,4\n"
      "omega,-0x1.9p+3\n"
      "scores,1\n"
      "-0x1.ap+3,7;*;9\n"
      "prev_high,1\n"
      "7\n"
      "prev_queue,0\n"
      "end\n";
  std::stringstream ss(v1);
  MinerCheckpoint cp;
  ASSERT_TRUE(ReadMinerCheckpoint(ss, &cp).ok());
  EXPECT_EQ(cp.iteration, 2);
  EXPECT_EQ(cp.k, 4);
  EXPECT_EQ(cp.omega, -12.5);
  EXPECT_EQ(cp.candidates_evaluated, 0);
  EXPECT_EQ(cp.candidates_pruned, 0);
  ASSERT_EQ(cp.scores.size(), 1u);
  EXPECT_EQ(cp.scores[0].pattern,
            Pattern(std::vector<CellId>{7, kWildcardCell, 9}));
  ASSERT_EQ(cp.prev_high.size(), 1u);
  EXPECT_EQ(cp.prev_queue.size(), 0u);

  std::stringstream bad("trajpattern_checkpoint,v3\nend\n");
  EXPECT_FALSE(ReadMinerCheckpoint(bad, &cp).ok());
}

}  // namespace
}  // namespace trajpattern

#ifndef TRAJPATTERN_CORE_NM_ENGINE_H_
#define TRAJPATTERN_CORE_NM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/mining_space.h"
#include "core/pattern.h"
#include "parallel/thread_pool.h"
#include "stats/mining_counters.h"
#include "trajectory/trajectory.h"

namespace trajpattern {

/// Timing/accounting split of one batch-scoring call (the parallel hot
/// path of §4.4's complexity analysis): the serial-side cache warm-up
/// versus the multi-threaded candidate scoring, plus the yield of the
/// ω-aware early-abandon when the caller enabled it.
struct BatchScoreStats {
  /// Seconds spent materializing missing cell columns before scoring.
  double warmup_seconds = 0.0;
  /// Seconds spent scoring candidates (parallel region).
  double scoring_seconds = 0.0;
  /// Cell columns newly cached by this call's warm-up (the incremental
  /// miss set: cells no earlier batch touched).
  size_t cells_warmed = 0;
  /// Warm-up requests satisfied by an already-resident column (the hit
  /// side of the incremental warm-up; wildcards excluded).
  size_t cells_hit = 0;
  /// Worker count the call actually ran with.
  int threads_used = 1;
  /// Candidates whose scan was abandoned early because the running
  /// partial sum fell below `prune_below` (0 when pruning is off).
  /// Like the engine's scored-candidate counters, this and
  /// `trajectories_skipped` cover completed chunks only.
  size_t candidates_pruned = 0;
  /// Trajectory evaluations skipped by those abandons (the work saved).
  int64_t trajectories_skipped = 0;
  /// Arena columns shed (LRU) to keep the run under its memory budget.
  size_t cells_evicted = 0;
  /// 1-D interval-probability passes (one per distinct grid column or
  /// row) the warm-ups ran: the erfc-bound share of warming.
  size_t factor_passes = 0;
  /// Chunks the call planned to fit the budget (1 == the whole batch ran
  /// as one chunk, the no-budget fast path).  Chunk boundaries are a
  /// pure function of the pattern list, the budget and the resident set,
  /// and the resident set is itself a pure function of the request
  /// history, so this count does not depend on the thread count.
  int chunks = 1;
  /// Why the call stopped early (`kNone` == it completed).  When set,
  /// `out[i]` is only valid for items the call finished before the stop
  /// fired; callers normally discard the whole batch and fall back to
  /// their last consistent state.
  StopReason stop = StopReason::kNone;
};

/// Folds one batch's accounting into a miner's running counters; every
/// miner calls this after every `NmTotalBatch`/`MatchTotalBatch` so the
/// three reports stay field-for-field comparable.  A stopped batch
/// (`batch.stop` set) adds only its time and evictions: that work did
/// happen, but every miner discards the batch's scores, so its pruning
/// counters would describe candidates no report counts as evaluated.
inline void AccumulateBatch(const BatchScoreStats& batch, MiningCounters* c) {
  c->warmup_seconds += batch.warmup_seconds;
  c->scoring_seconds += batch.scoring_seconds;
  c->threads_used = batch.threads_used;
  c->cells_evicted += static_cast<int64_t>(batch.cells_evicted);
  // stop_reason/aborted stay with the miner: whether a stopped batch
  // aborts the run (and what is discarded) is the miner's decision.
  if (batch.stop != StopReason::kNone) return;
  c->candidates_pruned += static_cast<int64_t>(batch.candidates_pruned);
  c->trajectories_skipped += batch.trajectories_skipped;
}

/// Which window-scoring kernel the batch entry points (`NmTotalBatch`,
/// `MatchTotalBatch`) run.  `kStreaming` is the production kernel;
/// `kGather` runs the per-pattern reference loop over every candidate,
/// which lets a whole mine be checked against it.  Both produce
/// bit-identical scores.  The per-pattern entry points always gather.
enum class WindowKernel {
  /// Position-major: the tiled, prefix-sharing window sums of DESIGN.md
  /// §4d, fused into a per-trajectory max scan.
  kStreaming,
  /// Window-major: per window, gather one value from each of the m
  /// columns, one candidate at a time.  Never prunes.
  kGather,
};

/// Scores patterns against a trajectory dataset: the match (Eq. 2) and
/// normalized-match (Eq. 3/4) measures and their dataset aggregates.
///
/// The inner quantity is logp[t][s][c] = log Prob(l_{t,s}, sigma_{t,s},
/// center(c), delta).  The engine caches one flat column per cell the
/// first time the cell is scored, so the cost of evaluating many candidate
/// patterns over the same few hundred live cells amortizes to array
/// lookups.  Columns live in one contiguous arena (`arena_`), one slab of
/// `TotalPoints()` doubles per cell, found through a dense
/// CellId-indexed slot table — resolving a pattern position is a single
/// indexed load, not a hash probe.  Trajectories shorter than the
/// pattern contribute the log floor to NM sums and 0 to match sums (they
/// cannot host a window).
///
/// Threading contract: the per-pattern entry points (`Nm`, `NmTotal`,
/// `MatchTotal`) warm the arena through `WarmCells` and therefore must
/// only be called from one thread at a time.  The batch entry points
/// (`NmTotalBatch`, `MatchTotalBatch`) pre-warm every column their
/// candidate set needs before any scoring worker starts — the warm-up
/// itself fans distinct cells out over the pool into disjoint slabs and
/// publishes the slot table serially (see `WarmCells`) — then fan the
/// candidates out over the same pool; scoring workers only ever *read*
/// the arena.
/// Batch scoring splits the trajectories into tiles of about 4096
/// points and scores the lexicographically sorted candidate batch one
/// tile at a time, rebuilding only the window-sum rows past each
/// candidate's common prefix with its predecessor (DESIGN.md §4d).
/// Batch results use the same reduction order as the per-pattern gather
/// loop (ascending position inside a window, trajectory 0, 1, ...), so
/// they are bit-identical to it regardless of the worker count.  That
/// loop shares no SIMD code with the batch kernel, which makes the
/// per-pattern entry points its independent reference.
///
/// Invalid patterns: the NM measure divides by the specified-position
/// count, so the empty pattern and all-wildcard patterns are undefined
/// under it.  `ValidateScorable` reports them as a typed error; the NM
/// scoring entry points reject them by returning -infinity (a value no
/// real pattern can reach, keeping release builds free of the silent
/// 0/0) instead of asserting.  Match does not normalize and remains
/// defined for them.
class NmEngine {
 public:
  /// `prune_below` value meaning "never abandon a candidate".
  static constexpr double kNoPruning =
      -std::numeric_limits<double>::infinity();

  NmEngine(const TrajectoryDataset& data, const MiningSpace& space);
  ~NmEngine();

  NmEngine(const NmEngine&) = delete;
  NmEngine& operator=(const NmEngine&) = delete;

  const MiningSpace& space() const { return space_; }
  const TrajectoryDataset& data() const { return *data_; }

  /// Typed rejection for patterns the NM measure cannot score: the empty
  /// pattern and patterns whose every position is a wildcard (division
  /// by a zero specified-count).  OK for everything else.
  static Status ValidateScorable(const Pattern& p);

  /// NM(P, T_i): max over length-|P| windows of the mean log prob (Eq. 3
  /// and 4), where the mean is over the *specified* (non-wildcard)
  /// positions — see `Pattern::SpecifiedCount`.  `LogFloor()` if
  /// trajectory `i` is shorter than `P`; -infinity if `P` fails
  /// `ValidateScorable`.
  double Nm(const Pattern& p, size_t traj_index) const;

  /// NM(P) over the whole dataset: sum of per-trajectory NM (§3.3),
  /// scored by the gather loop.  Like `Nm` and `MatchTotal`, warms the
  /// pattern's columns first and throws `std::bad_alloc` when the arena
  /// cannot grow.
  double NmTotal(const Pattern& p) const;

  /// Scores a whole candidate generation at once: out[i] == NmTotal(
  /// patterns[i]), bit-identical to the serial calls, computed on
  /// `num_threads` workers (0 = hardware concurrency, 1 = inline serial).
  /// Missing cell columns are warmed before any worker starts, which is
  /// what makes the scoring region read-only and race-free.
  ///
  /// `prune_below` (default `kNoPruning`) enables ω-aware early-abandon:
  /// every per-trajectory NM contribution is <= 0, so the running
  /// partial sum is a monotone non-increasing upper bound on the final
  /// total.  Once it drops below `prune_below` the remaining
  /// trajectories cannot lift it back, the scan stops, and out[i] is
  /// that partial sum — an upper bound on the exact NM that is itself
  /// `< prune_below`.  Feeding the miner's current ω keeps every
  /// downstream consumer exact: the pattern can never (re)enter the
  /// top-k (ω only grows), and its high/low classification is unchanged
  /// (true NM <= bound < ω means low either way).  Abandonment is
  /// checked after every trajectory, as in a per-pattern scan (the tiled
  /// kernel then skips the candidate in later tiles), so its points
  /// depend only on the trajectory order and pruned results are also
  /// bit-identical across thread counts.  The gather kernel scores
  /// exactly and ignores `prune_below`.
  /// `run` (optional) threads the run-control contract through the call:
  /// scoring workers poll its token/deadline between trajectory tiles
  /// (per candidate under the gather kernel), warm-up polls it between
  /// phases, and a non-zero `memory_budget_bytes` caps the column
  /// arena — the call splits the batch into chunks whose working sets
  /// fit the budget and sheds least-recently-used columns between
  /// chunks.  Each chunk is planned right after the previous chunk's
  /// warm-up, greedily around the columns resident then, so a batch
  /// staged in scattered order still re-warms few columns (DESIGN.md
  /// §4d).  Chunk boundaries are a pure function of the pattern list,
  /// the budget and the resident set; the resident set is itself a pure
  /// function of the request history, so chunking does not depend on
  /// the thread count.  Scores are per candidate and every chunk uses
  /// the serial reduction order, so budgeted results stay bit-identical
  /// to unbudgeted ones, returned in the staged order.  A pattern whose
  /// distinct cells alone overflow the budget stops the call with
  /// `kMemoryBudgetExceeded` before anything is scored.  On an early
  /// stop the call returns with `stats->stop` set and the output must
  /// be discarded.
  /// The `nm.candidates_scored` counter and `num_pattern_evaluations()`
  /// advance by a chunk's candidates only once that chunk completed, so
  /// after a stopped mine `nm.candidates_scored` equals the miner's
  /// `candidates_evaluated` plus the completed chunks of the batch the
  /// miner discarded (none without a memory budget: one chunk).
  std::vector<double> NmTotalBatch(const std::vector<Pattern>& patterns,
                                   int num_threads = 1,
                                   BatchScoreStats* stats = nullptr,
                                   double prune_below = kNoPruning,
                                   const RunContext* run = nullptr) const;

  /// Match(P): sum over trajectories of the max over windows of the
  /// joint probability (Eq. 2, with the window max of [14]), in linear
  /// space; a trajectory too short for a window contributes 0.
  double MatchTotal(const Pattern& p) const;

  /// Batch counterpart of `MatchTotal`; same contract as `NmTotalBatch`
  /// except there is no pruning: match contributions are >= 0, so a
  /// partial sum is a *lower* bound and supports no early abandon.
  std::vector<double> MatchTotalBatch(const std::vector<Pattern>& patterns,
                                      int num_threads = 1,
                                      BatchScoreStats* stats = nullptr,
                                      const RunContext* run = nullptr) const;

  /// Hit/miss split of one `WarmCells` call: every non-wildcard entry of
  /// the request either hit an already-resident (or already-staged,
  /// for in-request duplicates) column or missed and was materialized.
  struct WarmStats {
    size_t hits = 0;
    size_t misses = 0;
    /// Columns shed (LRU, excluding ones this request touched) to fit
    /// the run's memory budget.
    size_t evicted = 0;
    /// Distinct grid-column and grid-row `NormalIntervalProbBatch`
    /// passes the fill ran (0 under the radial model).
    size_t factor_passes = 0;
    /// Why the warm-up stopped early (`kNone` == it completed).  On a
    /// stop nothing half-filled is published: columns that finished
    /// before the stop are installed, the rest stay cold, and the
    /// return value counts only the published ones.
    StopReason stop = StopReason::kNone;
  };

  /// Materializes the log-prob columns of `cells` that are not cached
  /// yet.  Warm-up is parallel and incremental: the missing cells are
  /// deduplicated against the resident set (so per-batch calls warm only
  /// the delta), the arena is grown once, distinct columns are filled on
  /// distinct `num_threads` workers — each into its own pre-reserved
  /// slab, under the rectangular model via x/y-factored batched interval
  /// probabilities — and a single serial, ordered publish step installs
  /// the new slots into the dense CellId->slot table.  Column contents
  /// depend only on (cell, dataset, space), so results are bit-identical
  /// for any thread count and any warm order.  Returns the number of
  /// columns added — 0, with the arena untouched, when every cell is
  /// already warm.  This is the warm-up step of both the batch and the
  /// per-pattern entry points, exposed for callers that know their
  /// working set up front.  Not itself thread-safe: callers serialize
  /// calls (the batch API does) and workers only read.
  /// `run` (optional) adds run control: the fill fan-out polls the
  /// context before each column, a memory budget evicts
  /// least-recently-used resident columns (never ones this request
  /// needs) before growing the arena, and arena growth failure — real
  /// `std::bad_alloc` or an injected fault — reports `kAllocFailed`
  /// instead of throwing.  Columns are pure functions of (cell,
  /// dataset, space), so publishing only the completed subset after a
  /// stop keeps the cache consistent.
  size_t WarmCells(const std::vector<CellId>& cells, int num_threads = 1,
                   WarmStats* stats = nullptr,
                   const RunContext* run = nullptr) const;

  /// Sigma multiple of the `TouchedCells` radius.
  static constexpr double kTouchedRadiusSigmas = 3.0;

  /// Cells whose center receives non-negligible probability from at least
  /// one snapshot: within `kTouchedRadiusSigmas * sigma + delta` (plus half
  /// a cell) of some mean.  This is the effective singular alphabet; with
  /// the paper's fine grids almost all of G is empty and scoring it would
  /// be pure waste.
  std::vector<CellId> TouchedCells() const;

  /// Selects the batch window-scoring kernel (default `kStreaming`).  The
  /// gather kernel exists for bit-identity tests and benchmarks; both
  /// kernels produce identical results.
  void set_window_kernel(WindowKernel k) { kernel_ = k; }

  /// Number of pattern-vs-dataset scorings performed (for the benches);
  /// batch candidates count once their chunk completes.
  int64_t num_pattern_evaluations() const { return num_pattern_evaluations_; }
  /// Number of distinct cells with a cached log-prob column.
  size_t num_cached_cells() const { return num_slots_; }

  /// Bytes of one cell column (the arena's allocation granularity).
  size_t column_bytes() const { return stride_ * sizeof(double); }
  /// Arena bytes backing currently resident columns.
  size_t arena_resident_bytes() const { return num_slots_ * column_bytes(); }
  /// Arena bytes allocated (resident + free-listed slabs awaiting
  /// reuse).  This is the number a memory budget bounds; it never
  /// exceeds a budget that was in force for the engine's whole life.
  size_t arena_allocated_bytes() const {
    return allocated_slots_ * column_bytes();
  }
  /// High-water mark of `arena_allocated_bytes()`.
  size_t arena_peak_bytes() const { return peak_slots_ * column_bytes(); }
  /// Columns shed by memory-budget eviction over the engine's life.
  size_t cells_evicted() const { return cells_evicted_; }

  /// Test hook: called with the would-be arena byte size before every
  /// growth; returning true simulates an allocation failure
  /// (`kAllocFailed`) without actually exhausting memory.
  void set_alloc_fault_hook(std::function<bool(size_t)> hook) {
    alloc_fault_hook_ = std::move(hook);
  }

 private:
  /// Which aggregate a batch computes.
  enum class Measure { kNm, kMatch };

  /// Writes the radial-model log-prob column for `cell` into
  /// `out[0, TotalPoints())`, column-at-a-time through
  /// `RadialWithinProbBatch` instead of point-at-a-time.  `dist` is
  /// caller-owned scratch for the center distances, so parallel warm-up
  /// workers each bring their own.  (Rectangular columns are built by
  /// `WarmRectangularFactored`.)
  void ComputeColumnInto(CellId cell, double* out,
                         std::vector<double>* dist) const;

  /// Fills the slabs [base, base + missing.size()) of the pre-grown
  /// arena with the columns of `missing` under the rectangular model,
  /// factored: the column of cell (cx, cy) is SafeLog(Px * Py) where Px
  /// depends only on the grid column and Py only on the grid row, so the
  /// 1-D interval probabilities (the erfc-bound part) are computed once
  /// per distinct grid column/row in the batch and shared by every cell
  /// in it.  Factor passes and per-cell product+log passes each fan out
  /// over `pool`; each output depends only on its own inputs, so the
  /// result is bit-identical at any thread count — and to the point-at-a-
  /// time `MiningSpace::LogProb`, whose products multiply the exact same
  /// doubles.
  /// `slots[i]` is the (pre-reserved, possibly non-contiguous) arena
  /// slot for `missing[i]`.  With a non-null `run`, both fan-outs poll
  /// it and `done[i]` records whether cell i's column was fully
  /// computed (its grid-column factor, grid-row factor, and product
  /// pass all completed); without `run`, every column completes.
  /// Returns the number of factor passes that ran.
  size_t WarmRectangularFactored(const std::vector<CellId>& missing,
                                 const std::vector<int32_t>& slots,
                                 ThreadPool* pool, const RunContext* run,
                                 std::vector<char>* done) const;

  /// Base pointer of the column in `slot`.
  const double* ColumnBase(int32_t slot) const {
    return arena_.data() + static_cast<size_t>(slot) * stride_;
  }

  /// Column base pointer of a materialized `cell` (nullptr for the
  /// wildcard, log 1).  A read-only lookup, safe on scoring workers.
  const double* CachedColumn(CellId cell) const;

  /// Resolves each position of `p` to its column base pointer, warming
  /// the missing columns through `WarmCells` first (all of them, before
  /// any pointer is taken, so arena growth cannot dangle a sibling
  /// position).  Throws `std::bad_alloc` when the arena cannot grow.
  /// Serial per-pattern paths only.
  std::vector<const double*> ResolveColumns(const Pattern& p) const;

  /// Gather (window-major) max window log-sum for trajectory
  /// `traj_index`; returns false if the trajectory is shorter than the
  /// pattern (length `m`).  The reference kernel: plain scalar adds, no
  /// SIMD.
  bool BestWindowSumGather(const double* const* cols, size_t m,
                           size_t traj_index, double* best) const;

  /// The per-pattern dataset totals over resolved columns `cols`, by the
  /// per-trajectory gather loop: the independent reference the tiled
  /// batch kernel is checked against.
  double NmTotalResolved(const Pattern& p, const double* const* cols) const;
  double MatchTotalResolved(const Pattern& p, const double* const* cols) const;

  /// Shared body of the two batch entry points: chunk planning, warm-up,
  /// then `ScoreTiled` (or the per-candidate gather reference).  Scores
  /// land at the candidates' staged positions.
  std::vector<double> ScoreBatch(const std::vector<Pattern>& patterns,
                                 int num_threads, BatchScoreStats* stats,
                                 double prune_below, Measure measure,
                                 const RunContext* run) const;

  /// The tiled, prefix-sharing batch kernel over the warmed candidates
  /// `patterns[chunk[k]]`; `cols + col_begin[k]` holds candidate
  /// chunk[k]'s resolved columns.  Writes out[chunk[k]], and the
  /// trajectory evaluations an ω-abandon skipped to skipped[chunk[k]].
  /// Each worker takes a contiguous run of the sorted order; workers
  /// poll `run` between tiles.  See DESIGN.md §4d.
  void ScoreTiled(const std::vector<Pattern>& patterns,
                  const std::vector<size_t>& chunk, const double* const* cols,
                  const size_t* col_begin, Measure measure,
                  double prune_below, ThreadPool* pool, const RunContext* run,
                  double* out, int64_t* skipped) const;

  /// Evicts up to `count` resident columns, least-recently-used first
  /// (ties broken by CellId for determinism), skipping columns stamped
  /// with the in-progress request's `protect_tick`.  Freed slabs go to
  /// `free_slots_` for reuse.  Returns how many were evicted.
  size_t EvictLruSlots(size_t count, uint64_t protect_tick) const;

  /// Grows the arena to hold `new_alloc` slots (plus the slot-side
  /// bookkeeping).  Returns false — leaving the arena untouched — on
  /// `std::bad_alloc` or when the alloc fault hook injects a failure.
  bool GrowArena(size_t new_alloc) const;

  /// The lazily built pool reused by batch calls; grown when a call asks
  /// for more workers than it has.  nullptr until the first parallel call.
  ThreadPool* PoolFor(int threads) const;

  const TrajectoryDataset* data_;
  MiningSpace space_;
  /// offsets_[i] is the global index of trajectory i's first snapshot;
  /// offsets_.back() is the total snapshot count.
  std::vector<size_t> offsets_;
  /// All snapshots, flattened in trajectory order.
  std::vector<TrajectoryPoint> flat_points_;
  /// Structure-of-arrays view of `flat_points_` (means and sigmas), the
  /// dense inputs the batched prob evaluations stream over.
  std::vector<double> px_, py_, sigma_;
  /// Trajectory tiles of the batch kernel: tile t holds trajectories
  /// [tile_bounds_[t], tile_bounds_[t+1]), about `kTilePoints` points,
  /// cut at trajectory starts (a longer trajectory is a tile alone).
  std::vector<size_t> tile_bounds_;
  /// Points in the largest tile (the length of a prefix-sum row).
  size_t max_tile_points_ = 0;

  /// Column arena: slot s holds the column of one cell in
  /// [s*stride_, (s+1)*stride_), stride_ == flat_points_.size().
  /// Warm-up appends slabs (reusing free-listed ones first); batch
  /// workers only read.
  mutable std::vector<double> arena_;
  /// Dense CellId -> arena slot map (-1 == not materialized), sized to
  /// the grid; replaces the hash probe of the old unordered_map cache.
  mutable std::vector<int32_t> cell_slot_;
  /// Number of resident columns (== num_cached_cells()).  With a memory
  /// budget this can shrink (eviction); without one it only grows.
  mutable size_t num_slots_ = 0;
  /// Slots the arena is sized for (resident + free-listed).
  mutable size_t allocated_slots_ = 0;
  /// High-water mark of `allocated_slots_`.
  mutable size_t peak_slots_ = 0;
  /// Slabs freed by eviction (or unpublished after a stop), reused
  /// before the arena grows again.
  mutable std::vector<int32_t> free_slots_;
  /// Reverse map: slot -> resident cell (-1 for free slots); sized with
  /// the arena.  Lets eviction clear `cell_slot_` without a grid scan.
  mutable std::vector<CellId> slot_cell_;
  /// Per-slot LRU stamp: the `warm_tick_` of the last request that
  /// touched the slot (hit or publish).  Eviction drops the smallest
  /// stamps first, so a budgeted run sheds the cells the frontier left
  /// behind.
  mutable std::vector<uint64_t> slot_last_use_;
  /// Monotone request counter driving `slot_last_use_`.
  mutable uint64_t warm_tick_ = 0;
  /// Lifetime count of budget evictions (for stats/benches).
  mutable size_t cells_evicted_ = 0;
  /// Test hook simulating arena allocation failure (see setter).
  std::function<bool(size_t)> alloc_fault_hook_;
  /// Column length: one double per flattened snapshot.
  size_t stride_ = 0;

  WindowKernel kernel_ = WindowKernel::kStreaming;
  mutable int64_t num_pattern_evaluations_ = 0;
  mutable std::unique_ptr<ThreadPool> pool_;
};

/// Joint log probability that the window starting at `begin` in `points`
/// is generated by `p` (Eq. 2); used by pattern-assisted prediction on
/// live windows.  Requires begin + |p| <= points.size().
double WindowLogMatch(const std::vector<TrajectoryPoint>& points, size_t begin,
                      const Pattern& p, const MiningSpace& space);

}  // namespace trajpattern

#endif  // TRAJPATTERN_CORE_NM_ENGINE_H_

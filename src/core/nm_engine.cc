#include "core/nm_engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <new>
#include <numeric>
#include <limits>
#include <unordered_set>
#include <utility>

#include "core/simd_kernels.h"
#include "obs/obs.h"
#include "prob/log_space.h"
#include "prob/normal.h"
#include "stats/timer.h"

namespace trajpattern {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// `cell_slot_` sentinels: not materialized, and staged-by-this-warm-up
/// (a dedup marker that never survives a WarmCells call).
constexpr int32_t kNoSlot = -1;
constexpr int32_t kStagedSlot = -2;

/// Target points per trajectory tile of the batch kernel.  A tile's
/// prefix rows (32 KB each) stay in L1/L2 while the sorted candidates
/// stream their column slices past them.
constexpr size_t kTilePoints = 4096;

/// The fused last-column max scan; dispatched to AVX2 when available,
/// bit-identical at every level (see simd_kernels.h).
inline double FusedMaxSum(const double* w, const double* t, size_t n) {
  return simd::FusedMaxSum(w, t, n);
}

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

/// A set of ids below a fixed bound, as a bitmap with a summary bit per
/// bitmap word, so the smallest id is a few word scans away.  Storage is
/// allocated on the first insert.
class GroupSet {
 public:
  explicit GroupSet(size_t bound) : bound_(bound) {}

  void Insert(uint32_t id) {
    if (words_.empty()) {
      words_.assign((bound_ + 63) / 64, 0);
      summary_.assign((words_.size() + 63) / 64, 0);
    }
    const uint32_t w = id / 64;
    words_[w] |= uint64_t{1} << (id % 64);
    summary_[w / 64] |= uint64_t{1} << (w % 64);
    first_ = std::min(first_, w / 64);
  }

  /// Removes and returns the smallest id, or kNone when empty.
  uint32_t PopMin() {
    for (; first_ < summary_.size(); ++first_) {
      if (summary_[first_] == 0) continue;
      const uint32_t w = first_ * 64 + LowestBit(summary_[first_]);
      const uint32_t id = w * 64 + LowestBit(words_[w]);
      words_[w] &= words_[w] - 1;
      if (words_[w] == 0) summary_[first_] &= ~(uint64_t{1} << (w % 64));
      return id;
    }
    return kNone;
  }

 private:
  static uint32_t LowestBit(uint64_t word) {
    return static_cast<uint32_t>(std::countr_zero(word));
  }

  size_t bound_;
  std::vector<uint64_t> words_;
  std::vector<uint64_t> summary_;
  /// No summary word below this one is nonzero.
  uint32_t first_ = 0;
};

/// Plans the chunks of a memory-budgeted batch around the columns that
/// are already resident (DESIGN.md §4d).  A candidate's key is its sorted
/// distinct non-wildcard cells, then the pattern.  A chunk grows
/// greedily: it takes the pending candidate with the smallest (new cells
/// that are not resident, new cells, key position) whose new cells still
/// fit the budget, "new" meaning not yet in the chunk, and closes when
/// none fits.
///
/// Candidates with the same cells are planned as one group: once one is
/// taken the others add no cell and come next anyway.  Each (non-
/// resident new, new) bucket is a set of group ids, which are key
/// positions, and every pending group is filed in a bucket no larger in
/// either count than its current one.  Only a cell joining the chunk
/// lowers counts, so only the groups that hold it (found through a
/// cell -> pending-groups index) are re-filed at once.  Everything else
/// raises counts: a new chunk, an evicted column, and a column made
/// resident.  The last holds because the only columns that turn
/// resident between two plans are the previous chunk's, and every group
/// holding one was re-filed when it joined that chunk, with the cell
/// already off both counts.  A filing whose counts rose is moved when
/// it surfaces.  Planning work thus tracks the groups a chunk's cells
/// touch, not a scan of the batch per pick.
class ChunkPlanner {
 public:
  ChunkPlanner(const std::vector<Pattern>& patterns, size_t budget_slots)
      : budget_(budget_slots) {
    // Each staged candidate's sorted distinct cells, flattened.
    const size_t n = patterns.size();
    std::vector<size_t> begin(n + 1, 0);
    std::vector<CellId> flat;
    for (size_t i = 0; i < n; ++i) {
      for (CellId c : patterns[i].cells()) {
        if (c != kWildcardCell) flat.push_back(c);
      }
      const auto first = flat.begin() + static_cast<ptrdiff_t>(begin[i]);
      std::sort(first, flat.end());
      flat.erase(std::unique(first, flat.end()), flat.end());
      begin[i + 1] = flat.size();
      const size_t width = begin[i + 1] - begin[i];
      if (width > budget_) {
        overflow_ = true;  // no chunk can ever hold this candidate
        return;
      }
      width_ = std::max(width_, static_cast<uint32_t>(width));
    }
    const auto cells_of = [&](uint32_t i) {
      const auto first = flat.begin();
      return std::make_pair(first + static_cast<ptrdiff_t>(begin[i]),
                            first + static_cast<ptrdiff_t>(begin[i + 1]));
    };
    members_.resize(n);
    std::iota(members_.begin(), members_.end(), 0u);
    std::sort(members_.begin(), members_.end(), [&](uint32_t a, uint32_t b) {
      const auto [ab, ae] = cells_of(a);
      const auto [bb, be] = cells_of(b);
      if (!std::equal(ab, ae, bb, be)) {
        return std::lexicographical_compare(ab, ae, bb, be);
      }
      if (patterns[a] < patterns[b]) return true;
      if (patterns[b] < patterns[a]) return false;
      return a < b;
    });

    // Groups are runs of equal cells in key order; their cells get dense
    // local ids, and the incidence is stored both ways.
    cells_ = flat;
    std::sort(cells_.begin(), cells_.end());
    cells_.erase(std::unique(cells_.begin(), cells_.end()), cells_.end());
    index_begin_.assign(cells_.size() + 1, 0);
    cell_begin_.push_back(0);
    for (uint32_t k = 0; k < n; ++k) {
      const auto [b, e] = cells_of(members_[k]);
      if (k > 0) {
        const auto [pb, pe] = cells_of(members_[k - 1]);
        if (std::equal(b, e, pb, pe)) continue;
      }
      first_member_.push_back(k);
      for (auto it = b; it != e; ++it) {
        const uint32_t u = static_cast<uint32_t>(
            std::lower_bound(cells_.begin(), cells_.end(), *it) -
            cells_.begin());
        group_cells_.push_back(u);
        ++index_begin_[u + 1];
      }
      cell_begin_.push_back(static_cast<uint32_t>(group_cells_.size()));
    }
    const size_t groups = first_member_.size();
    first_member_.push_back(static_cast<uint32_t>(n));
    std::partial_sum(index_begin_.begin(), index_begin_.end(),
                     index_begin_.begin());
    index_end_.assign(index_begin_.begin(), index_begin_.end() - 1);
    index_.resize(group_cells_.size());
    for (uint32_t g = 0; g < groups; ++g) {
      for (uint32_t j = cell_begin_[g]; j < cell_begin_[g + 1]; ++j) {
        index_[index_end_[group_cells_[j]]++] = g;
      }
    }
    resident_.assign(cells_.size(), 0);
    in_chunk_.assign(cells_.size(), 0);
    pending_.assign(groups, 1);
    pending_count_ = groups;
    buckets_.assign(static_cast<size_t>(width_ + 1) * (width_ + 1),
                    GroupSet(groups));
  }

  /// True if some candidate alone needs more columns than the budget.
  bool overflow() const { return overflow_; }
  /// True once every candidate is in a planned chunk.
  bool done() const { return pending_count_ == 0; }

  /// Plans the next chunk against `cell_slot`, the slot table as it
  /// stands now, and writes its candidates' staged indices to `chunk`.
  void Next(const std::vector<int32_t>& cell_slot,
            std::vector<size_t>* chunk) {
    chunk->clear();
    ++chunk_id_;  // the previous chunk's cells leave it
    chunk_size_ = 0;
    for (size_t u = 0; u < cells_.size(); ++u) {
      resident_[u] = cell_slot[static_cast<size_t>(cells_[u])] >= 0;
    }
    if (chunk_id_ == 1) {
      for (uint32_t g = 0; g < pending_.size(); ++g) Push(g);
    }
    while (true) {
      const uint32_t group = PopBest();
      if (group == kNone) break;
      pending_[group] = 0;
      --pending_count_;
      for (uint32_t k = first_member_[group]; k < first_member_[group + 1];
           ++k) {
        chunk->push_back(members_[k]);
      }
      for (uint32_t j = cell_begin_[group]; j < cell_begin_[group + 1]; ++j) {
        const uint32_t u = group_cells_[j];
        if (in_chunk_[u] == chunk_id_) continue;
        in_chunk_[u] = chunk_id_;
        ++chunk_size_;
        ForEachPending(u, [&](uint32_t g) { Push(g); });
      }
    }
  }

 private:
  /// Group g's current bucket: nr * (width_ + 1) + new, which orders
  /// buckets as their (nr, new) pairs.
  uint32_t BucketOf(uint32_t g) const {
    uint32_t fresh = 0, nr = 0;
    for (uint32_t j = cell_begin_[g]; j < cell_begin_[g + 1]; ++j) {
      const uint32_t u = group_cells_[j];
      if (in_chunk_[u] == chunk_id_) continue;
      ++fresh;
      if (!resident_[u]) ++nr;
    }
    return nr * (width_ + 1) + fresh;
  }

  void Push(uint32_t g) { buckets_[BucketOf(g)].Insert(g); }

  /// Removes and returns the pending group with the smallest key whose
  /// new cells fit the room left, or kNone.  Buckets are scanned in key
  /// order, each from its smallest id.  A filing whose counts rose moves
  /// to its current bucket, which comes later in the scan; a group is
  /// never filed above its counts, so a bucket whose new count exceeds
  /// the room holds nothing that fits.
  uint32_t PopBest() {
    const uint32_t top = static_cast<uint32_t>(
        std::min<size_t>(width_, budget_ - chunk_size_));
    for (uint32_t nr = 0; nr <= top; ++nr) {
      for (uint32_t fresh = nr; fresh <= top; ++fresh) {
        const uint32_t b = nr * (width_ + 1) + fresh;
        for (uint32_t g; (g = buckets_[b].PopMin()) != kNone;) {
          if (!pending_[g]) continue;
          if (BucketOf(g) == b) return g;
          Push(g);
        }
      }
    }
    return kNone;
  }

  /// Calls f(g) for every pending group holding local cell u, dropping
  /// planned ones from u's list on the way.
  template <typename F>
  void ForEachPending(uint32_t u, F&& f) {
    uint32_t* const first = index_.data() + index_begin_[u];
    uint32_t* const last = index_.data() + index_end_[u];
    uint32_t* keep = first;
    for (uint32_t* p = first; p != last; ++p) {
      if (!pending_[*p]) continue;
      *keep++ = *p;
      f(*p);
    }
    index_end_[u] = static_cast<uint32_t>(keep - index_.data());
  }

  size_t budget_;
  bool overflow_ = false;
  /// Most distinct cells of any candidate.
  uint32_t width_ = 0;
  /// Local cell id -> CellId, ascending.
  std::vector<CellId> cells_;
  /// Staged indices in key order; group g is members_[first_member_[g],
  /// first_member_[g + 1]).
  std::vector<uint32_t> members_;
  std::vector<uint32_t> first_member_;
  /// Group g's local cells: group_cells_[cell_begin_[g], ...[g + 1]).
  std::vector<uint32_t> cell_begin_;
  std::vector<uint32_t> group_cells_;
  /// Local cell u's pending groups: index_[index_begin_[u],
  /// index_end_[u]), compacted as groups are planned.
  std::vector<uint32_t> index_begin_;
  std::vector<uint32_t> index_end_;
  std::vector<uint32_t> index_;
  /// Per local cell: resident when the chunk is planned; the last chunk
  /// that took it.
  std::vector<char> resident_;
  std::vector<uint32_t> in_chunk_;
  /// Per group: not yet planned.
  std::vector<char> pending_;
  size_t pending_count_ = 0;
  /// Filed groups per bucket.
  std::vector<GroupSet> buckets_;
  uint32_t chunk_id_ = 0;
  size_t chunk_size_ = 0;
};

}  // namespace

NmEngine::NmEngine(const TrajectoryDataset& data, const MiningSpace& space)
    : data_(&data), space_(space) {
  offsets_.reserve(data.size() + 1);
  flat_points_.reserve(data.TotalPoints());
  size_t off = 0;
  for (const auto& t : data) {
    offsets_.push_back(off);
    for (const auto& p : t) flat_points_.push_back(p);
    off += t.size();
  }
  offsets_.push_back(off);
  stride_ = flat_points_.size();
  px_.reserve(stride_);
  py_.reserve(stride_);
  sigma_.reserve(stride_);
  for (const auto& p : flat_points_) {
    px_.push_back(p.mean.x);
    py_.push_back(p.mean.y);
    sigma_.push_back(p.sigma);
  }
  cell_slot_.assign(static_cast<size_t>(space_.grid.num_cells()), kNoSlot);
  tile_bounds_.push_back(0);
  size_t tile_points = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    const size_t len = offsets_[i + 1] - offsets_[i];
    if (i > tile_bounds_.back() && tile_points + len > kTilePoints) {
      tile_bounds_.push_back(i);
      tile_points = 0;
    }
    tile_points += len;
    max_tile_points_ = std::max(max_tile_points_, tile_points);
  }
  if (!data.empty()) tile_bounds_.push_back(data.size());
}

NmEngine::~NmEngine() = default;

Status NmEngine::ValidateScorable(const Pattern& p) {
  if (p.empty()) {
    return Status::InvalidArgument("empty pattern cannot be scored");
  }
  if (p.SpecifiedCount() == 0) {
    return Status::InvalidArgument(
        "all-wildcard pattern has no specified positions; the NM "
        "normalization (best window sum / specified count) is undefined");
  }
  return Status::Ok();
}

void NmEngine::ComputeColumnInto(CellId cell, double* out,
                                 std::vector<double>* dist) const {
  assert(space_.model == IndifferenceModel::kRadial);
  const size_t n = stride_;
  const Point2 center = space_.grid.CenterOf(cell);
  // One cheap distance pass, then the batched Rice-CDF quadrature, then
  // the log in place.
  if (dist->size() < n) dist->resize(n);
  for (size_t g = 0; g < n; ++g) {
    (*dist)[g] = Distance(flat_points_[g].mean, center);
  }
  RadialWithinProbBatch(dist->data(), sigma_.data(), space_.delta, out, n);
  for (size_t g = 0; g < n; ++g) out[g] = SafeLog(out[g]);
}

bool NmEngine::GrowArena(size_t new_alloc) const {
  if (new_alloc <= allocated_slots_) return true;
  if (alloc_fault_hook_ &&
      alloc_fault_hook_(new_alloc * stride_ * sizeof(double))) {
    return false;
  }
  try {
    arena_.resize(new_alloc * stride_);
    slot_cell_.resize(new_alloc, kWildcardCell);
    slot_last_use_.resize(new_alloc, 0);
  } catch (const std::bad_alloc&) {
    return false;
  }
  allocated_slots_ = new_alloc;
  peak_slots_ = std::max(peak_slots_, allocated_slots_);
  return true;
}

size_t NmEngine::EvictLruSlots(size_t count, uint64_t protect_tick) const {
  if (count == 0 || num_slots_ == 0) return 0;
  // (stamp, cell) of every evictable resident slot; sorting gives
  // LRU-first with a CellId tiebreak, so the victim set is a pure
  // function of the request history — independent of thread count.
  std::vector<std::pair<uint64_t, CellId>> order;
  order.reserve(num_slots_);
  for (size_t s = 0; s < allocated_slots_; ++s) {
    const CellId c = slot_cell_[s];
    if (c == kWildcardCell) continue;                 // free slab
    if (slot_last_use_[s] == protect_tick) continue;  // current request
    order.emplace_back(slot_last_use_[s], c);
  }
  std::sort(order.begin(), order.end());
  const size_t n = std::min(count, order.size());
  for (size_t i = 0; i < n; ++i) {
    const CellId c = order[i].second;
    const int32_t slot = cell_slot_[static_cast<size_t>(c)];
    cell_slot_[static_cast<size_t>(c)] = kNoSlot;
    slot_cell_[static_cast<size_t>(slot)] = kWildcardCell;
    free_slots_.push_back(slot);
    --num_slots_;
    ++cells_evicted_;
  }
  TP_COUNTER_ADD("nm.cells_evicted", n);
  return n;
}

const double* NmEngine::CachedColumn(CellId cell) const {
  if (cell == kWildcardCell) return nullptr;
  assert(space_.grid.IsValid(cell));
  // Batch workers land here after warm-up, which guarantees a
  // materialized slot; that keeps this lookup read-only and race-free.
  const int32_t slot = cell_slot_[static_cast<size_t>(cell)];
  assert(slot >= 0);
  return ColumnBase(slot);
}

std::vector<const double*> NmEngine::ResolveColumns(const Pattern& p) const {
  // Materialize every missing column BEFORE taking any base pointer:
  // arena growth reallocates, which would dangle a sibling position
  // resolved earlier in the same pattern.  Without a RunContext the only
  // way the warm-up stops is a failed arena growth, and these entry
  // points have no Status channel.
  WarmStats ws;
  WarmCells(p.cells(), 1, &ws);
  if (ws.stop != StopReason::kNone) throw std::bad_alloc();
  std::vector<const double*> cols(p.length());
  for (size_t j = 0; j < p.length(); ++j) cols[j] = CachedColumn(p[j]);
  return cols;
}

bool NmEngine::BestWindowSumGather(const double* const* cols, size_t m,
                                   size_t traj_index, double* best) const {
  const size_t off = offsets_[traj_index];
  const size_t len = offsets_[traj_index + 1] - off;
  if (len < m || m == 0) return false;
  double best_sum = kNegInf;
  for (size_t k = 0; k + m <= len; ++k) {
    double sum = 0.0;
    for (size_t j = 0; j < m; ++j) {
      if (cols[j] != nullptr) sum += cols[j][off + k + j];
    }
    if (sum > best_sum) best_sum = sum;
  }
  *best = best_sum;
  return true;
}

double NmEngine::Nm(const Pattern& p, size_t traj_index) const {
  if (p.SpecifiedCount() == 0) return kNegInf;  // see ValidateScorable
  const std::vector<const double*> cols = ResolveColumns(p);
  double best;
  if (!BestWindowSumGather(cols.data(), p.length(), traj_index, &best)) {
    return LogFloor();
  }
  return best / static_cast<double>(p.SpecifiedCount());
}

double NmEngine::NmTotalResolved(const Pattern& p,
                                 const double* const* cols) const {
  const size_t m = p.length();
  const size_t specified = p.SpecifiedCount();
  if (specified == 0) return kNegInf;  // see ValidateScorable
  const double spec = static_cast<double>(specified);
  double total = 0.0;
  for (size_t i = 0; i < data_->size(); ++i) {
    double best;
    total += BestWindowSumGather(cols, m, i, &best) ? best / spec : LogFloor();
  }
  return total;
}

double NmEngine::NmTotal(const Pattern& p) const {
  ++num_pattern_evaluations_;
  // Warm any missing columns while still serial, then run the read-only
  // reference reduction.
  return NmTotalResolved(p, ResolveColumns(p).data());
}

double NmEngine::MatchTotalResolved(const Pattern& p,
                                    const double* const* cols) const {
  // An all-wildcard window sums to log 1, so such a pattern scores
  // exp(0) == 1 on every trajectory that can host a window.
  double total = 0.0;
  for (size_t i = 0; i < data_->size(); ++i) {
    double best;
    if (BestWindowSumGather(cols, p.length(), i, &best)) {
      total += std::exp(best);
    }
  }
  return total;
}

double NmEngine::MatchTotal(const Pattern& p) const {
  ++num_pattern_evaluations_;
  return MatchTotalResolved(p, ResolveColumns(p).data());
}

ThreadPool* NmEngine::PoolFor(int threads) const {
  if (threads <= 1) return nullptr;
  if (pool_ == nullptr || pool_->size() < threads) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  return pool_.get();
}

size_t NmEngine::WarmRectangularFactored(const std::vector<CellId>& missing,
                                         const std::vector<int32_t>& slots,
                                         ThreadPool* pool,
                                         const RunContext* run,
                                         std::vector<char>* done) const {
  const Grid& grid = space_.grid;
  const double delta = space_.delta;
  // First-seen-order dedup of the grid columns/rows the batch touches;
  // dense maps because nx/ny are small next to the dataset.
  std::vector<int32_t> col_slot(static_cast<size_t>(grid.nx()), -1);
  std::vector<int32_t> row_slot(static_cast<size_t>(grid.ny()), -1);
  std::vector<int> cols, rows;
  for (CellId c : missing) {
    const int col = grid.ColumnOf(c);
    const int row = grid.RowOf(c);
    if (col_slot[static_cast<size_t>(col)] < 0) {
      col_slot[static_cast<size_t>(col)] = static_cast<int32_t>(cols.size());
      cols.push_back(col);
    }
    if (row_slot[static_cast<size_t>(row)] < 0) {
      row_slot[static_cast<size_t>(row)] = static_cast<int32_t>(rows.size());
      rows.push_back(row);
    }
  }
  // Phase 1: one batched 1-D interval-probability pass per distinct grid
  // column/row.  `CenterOf` derives center.x purely from the column
  // index and center.y purely from the row index, so every cell sharing
  // a grid column shares these doubles bit-for-bit — this is where the
  // erfc-bound cost collapses from O(cells) to O(cols + rows) passes.
  std::vector<double> fx(cols.size() * stride_);
  std::vector<double> fy(rows.size() * stride_);
  // Under run control a factor pass can be skipped mid-batch; a cell's
  // column is complete only if its grid-column factor, grid-row factor,
  // AND product pass all ran, so factor completion is tracked too.
  const size_t part_count = cols.size() + rows.size();
  std::vector<char> part_done(run != nullptr ? part_count : 0, 0);
  ParallelFor(
      pool, part_count,
      [&](size_t i, int) {
        if (i < cols.size()) {
          const double cx = grid.CenterOf(grid.At(cols[i], 0)).x;
          NormalIntervalProbBatch(px_.data(), sigma_.data(), cx - delta,
                                  cx + delta, fx.data() + i * stride_, stride_);
        } else {
          const size_t r = i - cols.size();
          const double cy = grid.CenterOf(grid.At(0, rows[r])).y;
          NormalIntervalProbBatch(py_.data(), sigma_.data(), cy - delta,
                                  cy + delta, fy.data() + r * stride_, stride_);
        }
        if (run != nullptr) part_done[i] = 1;
      },
      run);
  // Phase 2: per-cell product + log into the cell's own slab.  Multiplies
  // the exact same doubles `ProbWithinDelta` would, so the columns are
  // bit-identical to `MiningSpace::LogProb` for any thread count and
  // order.
  ParallelFor(
      pool, missing.size(),
      [&](size_t i, int) {
        const CellId c = missing[i];
        const size_t ci =
            static_cast<size_t>(col_slot[static_cast<size_t>(grid.ColumnOf(c))]);
        const size_t ri =
            static_cast<size_t>(row_slot[static_cast<size_t>(grid.RowOf(c))]);
        if (run != nullptr &&
            (!part_done[ci] || !part_done[cols.size() + ri])) {
          return;  // a factor was skipped by the stop: leave the cell cold
        }
        const double* px = fx.data() + ci * stride_;
        const double* py = fy.data() + ri * stride_;
        double* out =
            arena_.data() + static_cast<size_t>(slots[i]) * stride_;
        for (size_t g = 0; g < stride_; ++g) out[g] = SafeLog(px[g] * py[g]);
        if (done != nullptr) (*done)[i] = 1;
      },
      run);
  return run == nullptr
             ? part_count
             : static_cast<size_t>(
                   std::count(part_done.begin(), part_done.end(), 1));
}

size_t NmEngine::WarmCells(const std::vector<CellId>& cells, int num_threads,
                           WarmStats* stats, const RunContext* run) const {
  WarmStats ws;
  // One LRU tick per request, stamped on every slot the request touches
  // (hits now, publishes below), so budget eviction can tell "needed by
  // the in-flight request" apart from "left behind by earlier ones".
  const uint64_t tick = ++warm_tick_;
  std::vector<CellId> missing;
  for (CellId c : cells) {
    if (c == kWildcardCell) continue;
    assert(space_.grid.IsValid(c));
    int32_t& slot = cell_slot_[static_cast<size_t>(c)];
    if (slot != kNoSlot) {  // materialized, or staged just below
      if (slot >= 0) slot_last_use_[static_cast<size_t>(slot)] = tick;
      ++ws.hits;
      continue;
    }
    slot = kStagedSlot;
    missing.push_back(c);
  }
  ws.misses = missing.size();
  if (missing.empty()) {
    if (stats != nullptr) *stats = ws;
    return 0;
  }
  // Early-out path: revert the staging marks (nothing was published).
  const auto bail = [&](StopReason why) -> size_t {
    for (CellId c : missing) cell_slot_[static_cast<size_t>(c)] = kNoSlot;
    ws.stop = why;
    if (stats != nullptr) *stats = ws;
    return 0;
  };

  // Memory budget: the resident set after this request must fit.  Shed
  // LRU columns first — never ones this request just hit, they carry the
  // current tick — and give up only if the request alone overflows.
  if (run != nullptr && run->memory_budget_bytes > 0 && stride_ > 0) {
    const size_t budget_slots =
        static_cast<size_t>(run->memory_budget_bytes / column_bytes());
    if (num_slots_ + missing.size() > budget_slots) {
      ws.evicted =
          EvictLruSlots(num_slots_ + missing.size() - budget_slots, tick);
      if (num_slots_ + missing.size() > budget_slots) {
        return bail(StopReason::kMemoryBudgetExceeded);
      }
    }
  }
  if (run != nullptr) {
    const StopReason sr = run->CheckStop();
    if (sr != StopReason::kNone) return bail(sr);
  }

  // Slot assignment: free-listed slabs first, then the arena is grown
  // once, serially, so the workers below write into disjoint
  // pre-existing slabs and `arena_.data()` never moves while they run;
  // slot assignment also stays on the calling thread — a single ordered
  // publish after the fills — so the slot table never needs a lock,
  // readers never see a torn update, and the cell->slot assignment is a
  // pure function of arrival order, independent of how the fills
  // interleaved.
  const size_t reuse = std::min(free_slots_.size(), missing.size());
  const size_t grow_base = allocated_slots_;
  if (!GrowArena(grow_base + (missing.size() - reuse))) {
    return bail(StopReason::kAllocFailed);
  }
  std::vector<int32_t> slots(missing.size());
  for (size_t i = 0; i < missing.size(); ++i) {
    slots[i] = i < reuse
                   ? free_slots_[free_slots_.size() - reuse + i]
                   : static_cast<int32_t>(grow_base + (i - reuse));
  }
  free_slots_.resize(free_slots_.size() - reuse);

  ThreadPool* pool = PoolFor(ResolveThreadCount(num_threads));
  // Without run control every fill completes; with it, `done` records
  // which columns finished before a stop.
  std::vector<char> done(missing.size(), run == nullptr ? 1 : 0);
  if (space_.model == IndifferenceModel::kRectangular) {
    ws.factor_passes = WarmRectangularFactored(
        missing, slots, pool, run, run == nullptr ? nullptr : &done);
    TP_COUNTER_ADD("nm.factor_passes", ws.factor_passes);
  } else {
    const int lanes = pool == nullptr ? 1 : pool->size();
    std::vector<std::vector<double>> scratch(static_cast<size_t>(lanes));
    ParallelFor(
        pool, missing.size(),
        [&](size_t i, int worker) {
          ComputeColumnInto(missing[i],
                            arena_.data() +
                                static_cast<size_t>(slots[i]) * stride_,
                            &scratch[static_cast<size_t>(worker)]);
          if (run != nullptr) done[i] = 1;
        },
        run);
  }

  // Ordered publish.  Columns a stop skipped revert to cold and their
  // slabs go back to the free list; publishing only the completed subset
  // is consistent because a column is a pure function of (cell, dataset,
  // space) — whoever warms it later gets the identical bits.
  size_t published = 0;
  for (size_t i = 0; i < missing.size(); ++i) {
    const size_t slot = static_cast<size_t>(slots[i]);
    if (done[i]) {
      cell_slot_[static_cast<size_t>(missing[i])] = slots[i];
      slot_cell_[slot] = missing[i];
      slot_last_use_[slot] = tick;
      ++published;
    } else {
      cell_slot_[static_cast<size_t>(missing[i])] = kNoSlot;
      free_slots_.push_back(slots[i]);
    }
  }
  num_slots_ += published;
  if (run != nullptr && published < missing.size()) {
    ws.stop = run->CheckStop();  // sticky: reports the stop that fired
  }
  if (stats != nullptr) *stats = ws;
  return published;
}

std::vector<double> NmEngine::ScoreBatch(const std::vector<Pattern>& patterns,
                                         int num_threads,
                                         BatchScoreStats* stats,
                                         double prune_below, Measure measure,
                                         const RunContext* run) const {
  const int threads = ResolveThreadCount(num_threads);
  BatchScoreStats out_stats;
  out_stats.threads_used = threads;
  std::vector<double> out(patterns.size());
  TP_COUNTER_INC("nm.batches");
  TP_HISTOGRAM_OBSERVE("nm.batch_size", patterns.size(),
                       {10, 100, 1000, 10000, 100000});
  if (run != nullptr) {
    const StopReason sr = run->CheckStop();
    if (sr != StopReason::kNone) {
      out_stats.stop = sr;
      if (stats != nullptr) *stats = out_stats;
      return out;
    }
  }

  // Chunking: with a memory budget the planner cuts the batch into
  // chunks whose cells fit the budget, each planned against the columns
  // the previous chunk's warm-up left resident; without one the whole
  // batch is one chunk, the exact pre-budget code path.
  const bool budgeted =
      run != nullptr && run->memory_budget_bytes > 0 && stride_ > 0;
  std::unique_ptr<ChunkPlanner> planner;
  std::vector<size_t> chunk;
  WallTimer timer;
  if (budgeted) {
    {
      TP_TRACE_SPAN("nm/warmup");
      planner = std::make_unique<ChunkPlanner>(
          patterns,
          static_cast<size_t>(run->memory_budget_bytes / column_bytes()));
    }
    out_stats.warmup_seconds += timer.Seconds();
    if (planner->overflow()) {
      // A single pattern overflows the budget by itself: no chunking or
      // eviction can ever score it.
      out_stats.stop = StopReason::kMemoryBudgetExceeded;
      if (stats != nullptr) *stats = out_stats;
      return out;
    }
  } else {
    chunk.resize(patterns.size());
    std::iota(chunk.begin(), chunk.end(), size_t{0});
  }
  out_stats.chunks = 0;

  ThreadPool* pool = PoolFor(threads);
  std::vector<int64_t> skipped(patterns.size(), 0);
  std::vector<const double*> cols;
  std::vector<size_t> col_begin;
  size_t scored = 0;
  do {
    timer.Reset();
    bool warm_stopped = false;
    {
      // Warm-up: every column any candidate of the chunk needs exists
      // before a worker runs, so the scoring region below only reads
      // the arena.  Planning is cache scheduling and is timed with it.
      TP_TRACE_SPAN("nm/warmup");
      if (planner != nullptr) planner->Next(cell_slot_, &chunk);
      ++out_stats.chunks;
      std::vector<CellId> needed;
      for (size_t i : chunk) {
        for (size_t j = 0; j < patterns[i].length(); ++j) {
          needed.push_back(patterns[i][j]);
        }
      }
      WarmStats ws;
      out_stats.cells_warmed += WarmCells(needed, threads, &ws, run);
      out_stats.cells_hit += ws.hits;
      out_stats.cells_evicted += ws.evicted;
      out_stats.factor_passes += ws.factor_passes;
      TP_COUNTER_ADD("nm.warmup_hits", ws.hits);
      TP_COUNTER_ADD("nm.warmup_misses", ws.misses);
      if (ws.stop != StopReason::kNone) {
        out_stats.stop = ws.stop;
        warm_stopped = true;
      }
    }
    out_stats.warmup_seconds += timer.Seconds();
    if (warm_stopped) break;

    timer.Reset();
    {
      TP_TRACE_SPAN("nm/scoring");
      // Every candidate's column pointers, resolved once for the chunk.
      cols.clear();
      col_begin.resize(chunk.size());
      for (size_t k = 0; k < chunk.size(); ++k) {
        col_begin[k] = cols.size();
        const Pattern& p = patterns[chunk[k]];
        for (size_t j = 0; j < p.length(); ++j) {
          cols.push_back(CachedColumn(p[j]));
        }
      }
      if (kernel_ == WindowKernel::kGather) {
        ParallelFor(
            pool, chunk.size(),
            [&](size_t k, int) {
              const Pattern& p = patterns[chunk[k]];
              const double* const* c = cols.data() + col_begin[k];
              out[chunk[k]] = measure == Measure::kNm
                                  ? NmTotalResolved(p, c)
                                  : MatchTotalResolved(p, c);
            },
            run);
      } else {
        ScoreTiled(patterns, chunk, cols.data(), col_begin.data(), measure,
                   prune_below, pool, run, out.data(), skipped.data());
      }
    }
    out_stats.scoring_seconds += timer.Seconds();
    if (run != nullptr) {
      const StopReason sr = run->CheckStop();
      if (sr != StopReason::kNone) {
        out_stats.stop = sr;
        break;
      }
    }
    // The chunk completed: only now do its candidates count as scored.
    scored += chunk.size();
    for (size_t i : chunk) {
      if (skipped[i] > 0) {
        ++out_stats.candidates_pruned;
        out_stats.trajectories_skipped += skipped[i];
      }
    }
  } while (planner != nullptr && !planner->done());
  num_pattern_evaluations_ += static_cast<int64_t>(scored);
  TP_COUNTER_ADD("nm.cells_warmed", out_stats.cells_warmed);
  TP_COUNTER_ADD("nm.candidates_scored", scored);
  TP_COUNTER_ADD("nm.candidates_pruned", out_stats.candidates_pruned);
  TP_COUNTER_ADD("nm.trajectories_skipped", out_stats.trajectories_skipped);
  if (stats != nullptr) *stats = out_stats;
  return out;
}

namespace {

/// Index of the last specified position of `p`, p.length() if none.
size_t LastSpecified(const Pattern& p) {
  for (size_t j = p.length(); j-- > 0;) {
    if (p[j] != kWildcardCell) return j;
  }
  return p.length();
}

/// One tiled-kernel worker's scratch: row d holds the window sums of a
/// candidate's positions [0, d] over the current tile (prefix[d] points
/// at it, at the column itself when position d is the first specified
/// one, at row d-1 when it is a wildcard, and is nullptr while no
/// position is specified); `built` names the cells the rows were built
/// for.
struct TileScratch {
  std::vector<double> rows;
  std::vector<const double*> prefix;
  std::vector<CellId> built;
};

}  // namespace

void NmEngine::ScoreTiled(const std::vector<Pattern>& patterns,
                          const std::vector<size_t>& chunk,
                          const double* const* cols, const size_t* col_begin,
                          Measure measure, double prune_below,
                          ThreadPool* pool, const RunContext* run, double* out,
                          int64_t* skipped) const {
  const bool nm = measure == Measure::kNm;
  const bool prune = nm && prune_below > kNoPruning;
  const size_t n = data_->size();
  const size_t count = chunk.size();
  // Sorted order of chunk positions: the candidates one high pattern was
  // joined into sit side by side and share that pattern's prefix rows.
  std::vector<size_t> order(count);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return patterns[chunk[a]] < patterns[chunk[b]];
  });
  // Per sorted slot: the last specified position (m if none), the NM
  // normalizer, the running total, and whether scoring is over (an
  // unscorable pattern, or an ω-abandon).
  std::vector<size_t> last(count);
  std::vector<double> spec(count);
  std::vector<double> total(count, 0.0);
  std::vector<char> done(count, 0);
  size_t depth = 0;  // prefix rows the batch needs
  for (size_t s = 0; s < count; ++s) {
    const Pattern& p = patterns[chunk[order[s]]];
    const size_t m = p.length();
    last[s] = LastSpecified(p);
    spec[s] = static_cast<double>(p.SpecifiedCount());
    if (m == 0 || (nm && last[s] == m)) {
      total[s] = nm ? kNegInf : 0.0;  // see ValidateScorable
      done[s] = 1;
    } else if (last[s] < m) {
      depth = std::max(depth, last[s]);
    }
  }

  const size_t lanes = pool == nullptr ? 1 : static_cast<size_t>(pool->size());
  const size_t runs = std::max<size_t>(1, std::min(lanes, count));
  std::vector<TileScratch> scratch(lanes);
  ParallelFor(
      pool, runs,
      [&](size_t r, int worker) {
        TileScratch& ts = scratch[static_cast<size_t>(worker)];
        ts.rows.resize(depth * max_tile_points_);
        ts.prefix.resize(depth);
        const size_t sb = count * r / runs;
        const size_t se = count * (r + 1) / runs;
        for (size_t t = 0; t + 1 < tile_bounds_.size(); ++t) {
          if (run != nullptr && run->StopRequested()) return;
          const size_t first = tile_bounds_[t];
          const size_t stop = tile_bounds_[t + 1];
          const size_t tile_off = offsets_[first];
          const size_t tile_len = offsets_[stop] - tile_off;
          ts.built.clear();
          for (size_t s = sb; s < se; ++s) {
            if (done[s]) continue;
            const Pattern& p = patterns[chunk[order[s]]];
            const double* const* c = cols + col_begin[order[s]];
            const size_t m = p.length();
            const size_t l = last[s];
            // Prefix rows the fused scan of position l reads: none for an
            // all-wildcard (match) pattern, which has no position l, nor
            // when no trajectory of the tile is long enough for a window.
            const size_t need = l == m || m > tile_len ? 0 : l;
            // Rows [0, d) already hold this candidate's prefix sums;
            // rebuild only the depths past the common prefix.
            size_t d = 0;
            while (d < ts.built.size() && d < need && ts.built[d] == p[d]) ++d;
            if (d < need) {
              ts.built.assign(p.cells().begin(),
                              p.cells().begin() + static_cast<ptrdiff_t>(need));
              for (; d < need; ++d) {
                const double* below = d == 0 ? nullptr : ts.prefix[d - 1];
                if (p[d] == kWildcardCell) {
                  ts.prefix[d] = below;  // a wildcard adds log 1
                } else if (below == nullptr) {
                  ts.prefix[d] = c[d] + tile_off + d;
                } else {
                  // Windows of the tile's trajectories start below
                  // tile_len - d, so no row reads past the tile.
                  double* row = ts.rows.data() + d * max_tile_points_;
                  simd::SumInto(row, below, c[d] + tile_off + d, tile_len - d);
                  ts.prefix[d] = row;
                }
              }
            }
            const double* w = need == 0 ? nullptr : ts.prefix[need - 1];
            double sum = total[s];
            for (size_t i = first; i < stop; ++i) {
              const size_t off = offsets_[i];
              const size_t len = offsets_[i + 1] - off;
              if (len >= m) {
                const double best =
                    l == m ? 0.0  // all-wildcard match window
                           : FusedMaxSum(w == nullptr ? nullptr
                                                      : w + (off - tile_off),
                                         c[l] + off + l, len - m + 1);
                sum += nm ? best / spec[s] : std::exp(best);
              } else if (nm) {
                sum += LogFloor();
              }
              // Every NM contribution is <= 0, so `sum` is a monotone
              // non-increasing upper bound on the final total: once it
              // is below the threshold it can never climb back.
              if (prune && sum < prune_below && i + 1 < n) {
                skipped[chunk[order[s]]] = static_cast<int64_t>(n - i - 1);
                done[s] = 1;
                break;
              }
            }
            total[s] = sum;
          }
        }
      },
      run);
  for (size_t s = 0; s < count; ++s) out[chunk[order[s]]] = total[s];
}

std::vector<double> NmEngine::NmTotalBatch(const std::vector<Pattern>& patterns,
                                           int num_threads,
                                           BatchScoreStats* stats,
                                           double prune_below,
                                           const RunContext* run) const {
  return ScoreBatch(patterns, num_threads, stats, prune_below, Measure::kNm,
                    run);
}

std::vector<double> NmEngine::MatchTotalBatch(
    const std::vector<Pattern>& patterns, int num_threads,
    BatchScoreStats* stats, const RunContext* run) const {
  return ScoreBatch(patterns, num_threads, stats, kNoPruning, Measure::kMatch,
                    run);
}

std::vector<CellId> NmEngine::TouchedCells() const {
  std::unordered_set<CellId> seen;
  for (const auto& pt : flat_points_) {
    const double r = kTouchedRadiusSigmas * pt.sigma + space_.delta +
                     0.5 * std::max(space_.grid.cell_width(),
                                    space_.grid.cell_height());
    for (CellId c : space_.grid.CellsWithin(pt.mean, r)) seen.insert(c);
  }
  std::vector<CellId> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

double WindowLogMatch(const std::vector<TrajectoryPoint>& points, size_t begin,
                      const Pattern& p, const MiningSpace& space) {
  assert(begin + p.length() <= points.size());
  double sum = 0.0;
  for (size_t j = 0; j < p.length(); ++j) {
    sum += space.LogProb(points[begin + j], p[j]);
  }
  return sum;
}

}  // namespace trajpattern

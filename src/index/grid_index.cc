#include "index/grid_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>

namespace trajpattern {

void GridIndex::Upsert(ObjectId id, const Point2& position) {
  const CellId cell = grid_.CellOf(position);
  auto it = cells_.find(id);
  if (it != cells_.end()) {
    if (it->second != cell) {
      DetachFromCell(id, it->second);
      buckets_[cell].push_back(id);
      it->second = cell;
    }
  } else {
    cells_.emplace(id, cell);
    buckets_[cell].push_back(id);
  }
  positions_[id] = position;
}

void GridIndex::DetachFromCell(ObjectId id, CellId cell) {
  auto& bucket = buckets_[cell];
  bucket.erase(std::remove(bucket.begin(), bucket.end(), id), bucket.end());
  if (bucket.empty()) buckets_.erase(cell);
}

std::vector<GridIndex::ObjectId> GridIndex::QueryBox(
    const BoundingBox& box) const {
  std::vector<ObjectId> out;
  const CellId lo = grid_.CellOf(box.min());
  const CellId hi = grid_.CellOf(box.max());
  for (int row = grid_.RowOf(lo); row <= grid_.RowOf(hi); ++row) {
    for (int col = grid_.ColumnOf(lo); col <= grid_.ColumnOf(hi); ++col) {
      auto it = buckets_.find(grid_.At(col, row));
      if (it == buckets_.end()) continue;
      for (ObjectId id : it->second) {
        if (box.Contains(positions_.at(id))) out.push_back(id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<GridIndex::ObjectId> GridIndex::QueryRadius(const Point2& center,
                                                        double radius) const {
  BoundingBox box(center - Point2(radius, radius),
                  center + Point2(radius, radius));
  std::vector<ObjectId> out;
  const double r2 = radius * radius;
  for (ObjectId id : QueryBox(box)) {
    if (SquaredDistance(positions_.at(id), center) <= r2) out.push_back(id);
  }
  return out;  // QueryBox output is sorted; the filter preserves order
}

std::vector<GridIndex::ObjectId> GridIndex::NearestNeighbors(
    const Point2& center, int k) const {
  assert(k >= 0);
  // Expanding-radius search: start from one cell pitch and double until
  // enough candidates are inside the *guaranteed* radius.  The candidate
  // set within radius r is exact, so once it holds k objects we are done.
  const size_t want = std::min<size_t>(static_cast<size_t>(k),
                                       positions_.size());
  if (want == 0) return {};
  double radius =
      std::max(grid_.cell_width(), grid_.cell_height());
  std::vector<ObjectId> candidates;
  while (true) {
    candidates = QueryRadius(center, radius);
    if (candidates.size() >= want) break;
    // Cover the whole indexed extent eventually.
    radius *= 2.0;
    if (radius > 4.0 * (grid_.box().width() + grid_.box().height())) {
      candidates.clear();
      candidates.reserve(positions_.size());
      for (const auto& [id, pos] : positions_) {
        (void)pos;
        candidates.push_back(id);
      }
      break;
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](ObjectId a, ObjectId b) {
              const double da = SquaredDistance(positions_.at(a), center);
              const double db = SquaredDistance(positions_.at(b), center);
              if (da != db) return da < db;
              return a < b;
            });
  candidates.resize(want);
  return candidates;
}

}  // namespace trajpattern

#ifndef TRAJPATTERN_INDEX_GRID_INDEX_H_
#define TRAJPATTERN_INDEX_GRID_INDEX_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "geometry/bounding_box.h"
#include "geometry/grid.h"
#include "geometry/point.h"

namespace trajpattern {

/// Bucketed spatial hash over a uniform `Grid` for point objects.
///
/// The mobile-object server (§3.1's "server and a set of mobile devices")
/// keeps every tracked object's current belief here so that location-
/// based queries — "which customers are near the store right now?"
/// (§1's e-Flyer scenario) — do not scan the whole fleet.  Objects are
/// identified by dense integer ids assigned by the caller.
class GridIndex {
 public:
  using ObjectId = int64_t;

  explicit GridIndex(const Grid& grid) : grid_(grid) {}

  /// Number of objects currently indexed.
  size_t size() const { return positions_.size(); }
  const Grid& grid() const { return grid_; }

  /// Inserts or moves `id` to `position`.
  void Upsert(ObjectId id, const Point2& position);

  /// Ids of all objects inside `box` (inclusive bounds), sorted.
  std::vector<ObjectId> QueryBox(const BoundingBox& box) const;

  /// Ids of all objects within Euclidean `radius` of `center`, sorted.
  std::vector<ObjectId> QueryRadius(const Point2& center,
                                    double radius) const;

  /// The `k` objects nearest to `center` (ties broken by id), nearest
  /// first.  Returns fewer when the index holds fewer than `k`.
  std::vector<ObjectId> NearestNeighbors(const Point2& center, int k) const;

 private:
  /// Removes `id` from its cell bucket (must be present there).
  void DetachFromCell(ObjectId id, CellId cell);

  Grid grid_;
  std::unordered_map<ObjectId, Point2> positions_;
  std::unordered_map<ObjectId, CellId> cells_;
  std::unordered_map<CellId, std::vector<ObjectId>> buckets_;
};

}  // namespace trajpattern

#endif  // TRAJPATTERN_INDEX_GRID_INDEX_H_

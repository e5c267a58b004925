#include "trajectory/transform.h"

#include <cmath>

namespace trajpattern {

Trajectory ToVelocityTrajectory(const Trajectory& t) {
  Trajectory v(t.id());
  if (t.size() < 2) return v;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    const auto& a = t[i];
    const auto& b = t[i + 1];
    v.Append(b.mean - a.mean,
             std::sqrt(a.sigma * a.sigma + b.sigma * b.sigma));
  }
  return v;
}

TrajectoryDataset ToVelocityTrajectories(const TrajectoryDataset& d) {
  TrajectoryDataset out;
  for (const auto& t : d) out.Add(ToVelocityTrajectory(t));
  return out;
}

}  // namespace trajpattern

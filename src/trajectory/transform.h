#ifndef TRAJPATTERN_TRAJECTORY_TRANSFORM_H_
#define TRAJPATTERN_TRAJECTORY_TRANSFORM_H_

#include "trajectory/trajectory.h"

namespace trajpattern {

/// Location -> velocity transform of §3.2.
///
/// The velocity at snapshot i is the difference of the location random
/// variables at snapshots i+1 and i: mean l_{i+1} - l_i, standard deviation
/// sqrt(sigma_i^2 + sigma_{i+1}^2) (independent errors).  A trajectory with
/// n snapshots yields a velocity trajectory with n-1 snapshots; empty and
/// single-point trajectories map to empty ones.
Trajectory ToVelocityTrajectory(const Trajectory& t);

/// Applies `ToVelocityTrajectory` to every trajectory in `d`.
TrajectoryDataset ToVelocityTrajectories(const TrajectoryDataset& d);

}  // namespace trajpattern

#endif  // TRAJPATTERN_TRAJECTORY_TRANSFORM_H_

#ifndef TRAJPATTERN_PREDICTION_DEAD_RECKONING_H_
#define TRAJPATTERN_PREDICTION_DEAD_RECKONING_H_

#include "prediction/motion_model.h"
#include "trajectory/trajectory.h"

namespace trajpattern {

/// Parameters of the §3.1 location reporting scheme.
struct DeadReckoningOptions {
  /// Tolerable uncertainty distance U: the object reports whenever the
  /// server's prediction is more than U from its actual location.
  double uncertainty = 0.01;
  /// The constant c of §3.1; the server-side belief carries sigma = U/c.
  double c = 2.0;
};

/// Outcome of replaying one actual trajectory through the reporting loop.
struct DeadReckoningResult {
  /// Snapshots at which a prediction was evaluated (size - 1).
  int predictions = 0;
  /// Predictions that missed by more than U, forcing a report — the
  /// paper's "mis-predictions" (§6.1).
  int mispredictions = 0;
  /// The imprecise trajectory the server records: reported locations and
  /// accepted predictions, each with sigma = U/c.  This is exactly the
  /// mining input format of §3.2.
  Trajectory server_view;
};

/// Replays `actual` (means are the object's true positions) through the
/// dead-reckoning loop with `model` as the shared predictor.  The model
/// is (re)initialized with the first position; reports carry the object's
/// one-snapshot velocity estimate.
DeadReckoningResult SimulateDeadReckoning(const Trajectory& actual,
                                          MotionModel* model,
                                          const DeadReckoningOptions& opt);

/// Aggregate mis-prediction statistics over a test set.
struct PredictionEvaluation {
  int predictions = 0;
  int mispredictions = 0;
  /// mispredictions / predictions (0 when empty).
  double MispredictionRate() const {
    return predictions > 0
               ? static_cast<double>(mispredictions) / predictions
               : 0.0;
  }
};

/// Runs `SimulateDeadReckoning` over every trajectory in `test` with a
/// fresh clone of `prototype` and sums the counters.
PredictionEvaluation EvaluatePrediction(const TrajectoryDataset& test,
                                        const MotionModel& prototype,
                                        const DeadReckoningOptions& opt);

}  // namespace trajpattern

#endif  // TRAJPATTERN_PREDICTION_DEAD_RECKONING_H_

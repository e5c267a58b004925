#include "prediction/dead_reckoning.h"

#include <cassert>

namespace trajpattern {

DeadReckoningResult SimulateDeadReckoning(const Trajectory& actual,
                                          MotionModel* model,
                                          const DeadReckoningOptions& opt) {
  DeadReckoningResult result;
  result.server_view = Trajectory(actual.id());
  if (actual.empty()) return result;
  model->Initialize(actual[0].mean);
  const double sigma = opt.uncertainty / opt.c;
  result.server_view.Append(actual[0].mean, sigma);
  for (size_t t = 1; t < actual.size(); ++t) {
    const Point2 predicted = model->PredictNext();
    ++result.predictions;
    if (Distance(predicted, actual[t].mean) > opt.uncertainty) {
      ++result.mispredictions;
      const Vec2 velocity = actual[t].mean - actual[t - 1].mean;
      model->AdvanceReported(actual[t].mean, velocity);
      result.server_view.Append(actual[t].mean, sigma);
    } else {
      model->AdvancePredicted(predicted);
      result.server_view.Append(predicted, sigma);
    }
    model->ObserveActual(actual[t].mean);
  }
  return result;
}

PredictionEvaluation EvaluatePrediction(const TrajectoryDataset& test,
                                        const MotionModel& prototype,
                                        const DeadReckoningOptions& opt) {
  PredictionEvaluation eval;
  for (const auto& t : test) {
    auto model = prototype.Clone();
    const DeadReckoningResult r = SimulateDeadReckoning(t, model.get(), opt);
    eval.predictions += r.predictions;
    eval.mispredictions += r.mispredictions;
  }
  return eval;
}

}  // namespace trajpattern

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/mining_space.h"
#include "prob/rng.h"
#include "prediction/dead_reckoning.h"
#include "prediction/kalman_model.h"
#include "prediction/motion_model.h"
#include "prediction/pattern_assisted.h"
#include "prediction/rmf_model.h"

namespace trajpattern {
namespace {

Trajectory LineTrajectory(int n, Point2 start, Vec2 v) {
  Trajectory t("line");
  Point2 p = start;
  for (int i = 0; i < n; ++i) {
    t.Append(p, 0.0);
    p += v;
  }
  return t;
}

TEST(LinearModelTest, PredictsConstantVelocityAfterReport) {
  LinearModel lm;
  lm.Initialize(Point2(0.0, 0.0));
  EXPECT_EQ(lm.PredictNext(), Point2(0.0, 0.0));  // no velocity yet
  lm.AdvanceReported(Point2(1.0, 0.0), Vec2(1.0, 0.0));
  EXPECT_EQ(lm.PredictNext(), Point2(2.0, 0.0));
  lm.AdvancePredicted(Point2(2.0, 0.0));
  EXPECT_EQ(lm.PredictNext(), Point2(3.0, 0.0));
}

TEST(KalmanModelTest, ConvergesOnLinearMotion) {
  KalmanModel kf;
  kf.Initialize(Point2(0.0, 0.0));
  // Feed reports of constant-velocity motion; prediction error must
  // shrink below the step size.
  Point2 p(0.0, 0.0);
  const Vec2 v(0.1, 0.05);
  double last_err = 1e9;
  for (int i = 1; i <= 25; ++i) {
    p += v;
    kf.AdvanceReported(p, v);
    last_err = Distance(kf.PredictNext(), p + v);
  }
  EXPECT_LT(last_err, 0.01);
}

TEST(KalmanModelTest, CoastsBetweenReports) {
  KalmanModel kf;
  kf.Initialize(Point2(0.0, 0.0));
  Point2 p(0.0, 0.0);
  const Vec2 v(0.1, 0.0);
  for (int i = 1; i <= 20; ++i) {
    p += v;
    kf.AdvanceReported(p, v);
  }
  // Without reports the filter should keep extrapolating the velocity.
  const Point2 pred1 = kf.PredictNext();
  kf.AdvancePredicted(pred1);
  const Point2 pred2 = kf.PredictNext();
  EXPECT_NEAR(pred2.x - pred1.x, 0.1, 0.02);
}

TEST(RmfModelTest, LearnsConstantVelocity) {
  RmfModel rmf;
  rmf.Initialize(Point2(0.0, 0.0));
  Point2 p(0.0, 0.0);
  const Vec2 v(0.05, 0.02);
  for (int i = 1; i <= 10; ++i) {
    p += v;
    rmf.AdvanceReported(p, v);
  }
  EXPECT_LT(Distance(rmf.PredictNext(), p + v), 0.01);
}

TEST(RmfModelTest, FallsBackWithShortHistory) {
  RmfModel rmf;
  rmf.Initialize(Point2(1.0, 1.0));
  EXPECT_EQ(rmf.PredictNext(), Point2(1.0, 1.0));
  rmf.AdvanceReported(Point2(1.1, 1.0), Vec2(0.1, 0.0));
  // Constant-velocity fallback.
  EXPECT_LT(Distance(rmf.PredictNext(), Point2(1.2, 1.0)), 1e-12);
}

TEST(DeadReckoningTest, LinearMotionNeedsExactlyOneReport) {
  // The model starts with zero velocity, so the accepted predictions stay
  // at the origin until the accumulated drift exceeds U; that single
  // report delivers the true velocity and no further report is needed.
  const Trajectory actual =
      LineTrajectory(20, Point2(0.0, 0.0), Vec2(0.01, 0.0));
  LinearModel lm;
  DeadReckoningOptions opt;
  opt.uncertainty = 0.02;
  opt.c = 2.0;
  const DeadReckoningResult r = SimulateDeadReckoning(actual, &lm, opt);
  EXPECT_EQ(r.predictions, 19);
  EXPECT_EQ(r.mispredictions, 1);
  EXPECT_EQ(r.server_view.size(), actual.size());
  // After the report the server view tracks the object exactly.
  EXPECT_LT(Distance(r.server_view[19].mean, actual[19].mean), 1e-9);
}

TEST(DeadReckoningTest, SharpTurnForcesReport) {
  Trajectory actual("turn");
  for (int i = 0; i < 10; ++i) actual.Append(Point2(0.05 * i, 0.0), 0.0);
  for (int i = 1; i <= 10; ++i) actual.Append(Point2(0.45, 0.05 * i), 0.0);
  LinearModel lm;
  DeadReckoningOptions opt;
  opt.uncertainty = 0.02;
  const DeadReckoningResult r = SimulateDeadReckoning(actual, &lm, opt);
  EXPECT_GT(r.mispredictions, 0);
  // Server view must coincide with actual wherever a report happened and
  // carry sigma = U/c everywhere.
  for (const auto& pt : r.server_view) {
    EXPECT_DOUBLE_EQ(pt.sigma, opt.uncertainty / opt.c);
  }
}

TEST(DeadReckoningTest, EvaluateAggregatesOverDataset) {
  TrajectoryDataset test;
  test.Add(LineTrajectory(10, Point2(0.0, 0.0), Vec2(0.01, 0.0)));
  test.Add(LineTrajectory(10, Point2(0.5, 0.5), Vec2(0.0, 0.01)));
  LinearModel prototype;
  DeadReckoningOptions opt;
  opt.uncertainty = 0.05;
  const PredictionEvaluation eval = EvaluatePrediction(test, prototype, opt);
  EXPECT_EQ(eval.predictions, 18);
  // One drift-triggered report per trajectory (see
  // LinearMotionNeedsExactlyOneReport).
  EXPECT_EQ(eval.mispredictions, 2);
  EXPECT_DOUBLE_EQ(eval.MispredictionRate(), 2.0 / 18.0);
}

TEST(PatternAssistedTest, PatternOverridesBaseOnConfirmedPrefix) {
  // Velocity space: grid over [-1, 1]^2; a pattern that says "after two
  // +x steps comes a +y step".
  const Grid vgrid(BoundingBox(Point2(-1.0, -1.0), Point2(1.0, 1.0)), 20, 20);
  const MiningSpace vspace(vgrid, 0.08);
  const CellId cx = vgrid.CellOf(Point2(0.15, 0.0));
  const CellId cy = vgrid.CellOf(Point2(0.0, 0.15));
  std::vector<ScoredPattern> patterns = {
      {Pattern(std::vector<CellId>{cx, cx, cy}), -0.1}};
  PatternAssistOptions popt;
  popt.confirm_threshold = 0.5;
  popt.min_confirm_length = 2;
  popt.velocity_sigma = 0.03;

  PatternAssistedModel model(std::make_unique<LinearModel>(), patterns,
                             vspace, popt);
  // Actual history: two steps of +x movement (velocity = center of cx),
  // fed through the object-side channel.
  const Vec2 vx = vgrid.CenterOf(cx);
  model.Initialize(Point2(0.0, 0.0));
  model.AdvanceReported(Point2(0.0, 0.0) + vx, vx);
  model.ObserveActual(Point2(0.0, 0.0) + vx);
  model.AdvanceReported(Point2(0.0, 0.0) + vx + vx, vx);
  model.ObserveActual(Point2(0.0, 0.0) + vx + vx);
  const Point2 pred = model.PredictNext();
  EXPECT_GT(model.pattern_hits(), 0);
  // The pattern predicts a +y velocity next, not +x.
  const Point2 base_pred = Point2(0.0, 0.0) + vx + vx + vx;
  const Point2 pattern_pred = Point2(0.0, 0.0) + vx + vx + vgrid.CenterOf(cy);
  EXPECT_LT(Distance(pred, pattern_pred), Distance(pred, base_pred));
}

TEST(PatternAssistedTest, FallsBackToBaseWithoutConfirmation) {
  const Grid vgrid(BoundingBox(Point2(-1.0, -1.0), Point2(1.0, 1.0)), 20, 20);
  const MiningSpace vspace(vgrid, 0.05);
  // Pattern in a velocity region the history never visits.
  const CellId far = vgrid.CellOf(Point2(-0.9, -0.9));
  std::vector<ScoredPattern> patterns = {
      {Pattern(std::vector<CellId>{far, far, far}), -0.1}};
  PatternAssistOptions popt;
  popt.confirm_threshold = 0.9;
  PatternAssistedModel model(std::make_unique<LinearModel>(), patterns,
                             vspace, popt);
  model.Initialize(Point2(0.0, 0.0));
  model.AdvanceReported(Point2(0.1, 0.0), Vec2(0.1, 0.0));
  model.ObserveActual(Point2(0.1, 0.0));
  model.AdvanceReported(Point2(0.2, 0.0), Vec2(0.1, 0.0));
  model.ObserveActual(Point2(0.2, 0.0));
  // Base LinearModel prediction.
  EXPECT_LT(Distance(model.PredictNext(), Point2(0.3, 0.0)), 1e-12);
  EXPECT_EQ(model.pattern_hits(), 0);
}

TEST(PatternAssistedTest, CloneIsIndependent) {
  const Grid vgrid(BoundingBox(Point2(-1.0, -1.0), Point2(1.0, 1.0)), 10, 10);
  const MiningSpace vspace(vgrid, 0.05);
  PatternAssistedModel model(std::make_unique<KalmanModel>(), {}, vspace,
                             PatternAssistOptions{});
  auto clone = model.Clone();
  EXPECT_EQ(clone->name(), "LKF+patterns");
  clone->Initialize(Point2(0.5, 0.5));
  EXPECT_EQ(clone->PredictNext(), Point2(0.5, 0.5));
}

}  // namespace
}  // namespace trajpattern

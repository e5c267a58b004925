#include <gtest/gtest.h>

#include <cmath>

#include "trajectory/synchronizer.h"
#include "trajectory/trajectory.h"
#include "trajectory/transform.h"

namespace trajpattern {
namespace {

Trajectory MakeTrajectory(const std::string& id,
                          std::initializer_list<Point2> means,
                          double sigma = 0.01) {
  Trajectory t(id);
  for (const auto& m : means) t.Append(m, sigma);
  return t;
}

TEST(TrajectoryTest, AppendAndAccess) {
  Trajectory t("a");
  EXPECT_TRUE(t.empty());
  t.Append(Point2(0.1, 0.2), 0.05);
  t.Append(TrajectoryPoint(Point2(0.3, 0.4), 0.06));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].mean, Point2(0.1, 0.2));
  EXPECT_DOUBLE_EQ(t[1].sigma, 0.06);
  EXPECT_EQ(t.id(), "a");
}

TEST(TrajectoryDatasetTest, Aggregates) {
  TrajectoryDataset d;
  d.Add(MakeTrajectory("a", {{0.0, 0.0}, {1.0, 1.0}}));
  d.Add(MakeTrajectory("b", {{0.5, 0.5}, {0.6, 0.6}, {0.7, 0.7}}));
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.TotalPoints(), 5u);
  EXPECT_DOUBLE_EQ(d.AverageLength(), 2.5);
}

TEST(TrajectoryDatasetTest, MeanBoundingBox) {
  TrajectoryDataset d;
  d.Add(MakeTrajectory("a", {{0.0, 0.2}, {1.0, 0.8}}));
  const BoundingBox box = d.MeanBoundingBox(0.1);
  EXPECT_DOUBLE_EQ(box.min().x, -0.1);
  EXPECT_DOUBLE_EQ(box.min().y, 0.1);
  EXPECT_DOUBLE_EQ(box.max().x, 1.1);
  EXPECT_DOUBLE_EQ(box.max().y, 0.9);
}

TEST(TrajectoryDatasetTest, SplitHeadTail) {
  TrajectoryDataset d;
  for (int i = 0; i < 5; ++i) {
    d.Add(MakeTrajectory("t" + std::to_string(i), {{0.0, 0.0}}));
  }
  const auto [head, tail] = d.Split(3);
  EXPECT_EQ(head.size(), 3u);
  EXPECT_EQ(tail.size(), 2u);
  EXPECT_EQ(head[0].id(), "t0");
  EXPECT_EQ(tail[0].id(), "t3");
}

TEST(VelocityTransformTest, MeansAreDifferences) {
  const Trajectory t =
      MakeTrajectory("a", {{0.0, 0.0}, {0.1, 0.2}, {0.3, 0.3}}, 0.01);
  const Trajectory v = ToVelocityTrajectory(t);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_NEAR(v[0].mean.x, 0.1, 1e-12);
  EXPECT_NEAR(v[0].mean.y, 0.2, 1e-12);
  EXPECT_NEAR(v[1].mean.x, 0.2, 1e-12);
  EXPECT_NEAR(v[1].mean.y, 0.1, 1e-12);
}

TEST(VelocityTransformTest, SigmaIsRootSumOfSquares) {
  Trajectory t("a");
  t.Append(Point2(0.0, 0.0), 0.03);
  t.Append(Point2(0.1, 0.0), 0.04);
  const Trajectory v = ToVelocityTrajectory(t);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NEAR(v[0].sigma, 0.05, 1e-12);  // 3-4-5
}

TEST(VelocityTransformTest, ShortTrajectoriesBecomeEmpty) {
  EXPECT_TRUE(ToVelocityTrajectory(MakeTrajectory("a", {})).empty());
  EXPECT_TRUE(ToVelocityTrajectory(MakeTrajectory("a", {{0.5, 0.5}})).empty());
}

TEST(VelocityTransformTest, DatasetKeepsCount) {
  TrajectoryDataset d;
  d.Add(MakeTrajectory("a", {{0.0, 0.0}, {0.1, 0.1}, {0.2, 0.2}}));
  d.Add(MakeTrajectory("b", {{0.0, 0.0}, {0.5, 0.0}}));
  const TrajectoryDataset v = ToVelocityTrajectories(d);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].size(), 2u);
  EXPECT_EQ(v[1].size(), 1u);
  EXPECT_EQ(v[0].id(), "a");
}

TEST(SynchronizerTest, InterpolatesLinearMotion) {
  Synchronizer::Options opt;
  opt.start_time = 0.0;
  opt.interval = 1.0;
  opt.num_snapshots = 5;
  opt.base_sigma = 0.01;
  Synchronizer sync(opt);
  // Reports at t=0 and t=2 moving at velocity (1, 0) per unit time.
  const std::vector<LocationReport> reports = {
      {0.0, Point2(0.0, 0.0)}, {2.0, Point2(2.0, 0.0)}};
  const Trajectory t = sync.Synchronize("obj", reports);
  ASSERT_EQ(t.size(), 5u);
  EXPECT_EQ(t[0].mean, Point2(0.0, 0.0));
  // At t=1 only the first report is known: no velocity yet.
  EXPECT_EQ(t[1].mean, Point2(0.0, 0.0));
  EXPECT_EQ(t[2].mean, Point2(2.0, 0.0));
  // After the second report the velocity (1, 0) extrapolates.
  EXPECT_EQ(t[3].mean, Point2(3.0, 0.0));
  EXPECT_EQ(t[4].mean, Point2(4.0, 0.0));
}

TEST(SynchronizerTest, SigmaGrowsWithElapsedTime) {
  Synchronizer::Options opt;
  opt.num_snapshots = 4;
  opt.base_sigma = 0.01;
  opt.sigma_growth = 0.005;
  Synchronizer sync(opt);
  const std::vector<LocationReport> reports = {{0.0, Point2(0.0, 0.0)}};
  const Trajectory t = sync.Synchronize("obj", reports);
  ASSERT_EQ(t.size(), 4u);
  EXPECT_DOUBLE_EQ(t[0].sigma, 0.01);
  EXPECT_DOUBLE_EQ(t[1].sigma, 0.015);
  EXPECT_DOUBLE_EQ(t[3].sigma, 0.025);
}

TEST(SynchronizerTest, NeverReportingObjectYieldsEmptyTrajectory) {
  Synchronizer::Options opt;
  opt.num_snapshots = 5;
  Synchronizer sync(opt);
  // A registered device that stayed silent: a well-defined empty
  // trajectory, not an assertion failure.
  const Trajectory t = sync.Synchronize("silent", {});
  EXPECT_EQ(t.id(), "silent");
  EXPECT_EQ(t.size(), 0u);
}

TEST(SynchronizerTest, SnapshotBeforeFirstReport) {
  Synchronizer::Options opt;
  opt.start_time = 0.0;
  opt.interval = 1.0;
  opt.num_snapshots = 2;
  opt.base_sigma = 0.01;
  Synchronizer sync(opt);
  const std::vector<LocationReport> reports = {{1.5, Point2(0.7, 0.3)}};
  const Trajectory t = sync.Synchronize("obj", reports);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].mean, Point2(0.7, 0.3));
  EXPECT_EQ(t[1].mean, Point2(0.7, 0.3));
}

}  // namespace
}  // namespace trajpattern

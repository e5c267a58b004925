#ifndef TRAJPATTERN_TRAJECTORY_VALIDATE_H_
#define TRAJPATTERN_TRAJECTORY_VALIDATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "trajectory/trajectory.h"

namespace trajpattern {

/// Per-snapshot verdict of `TrajectoryValidator::Classify`.
enum class SnapshotFault : uint8_t {
  kOk = 0,
  /// x or y is NaN or infinite: the snapshot carries no location at all.
  kNonFiniteCoord,
  /// sigma is NaN, infinite, or <= 0: Prob(l, sigma, p, delta) is
  /// undefined, and one such snapshot poisons every NM window through it.
  kBadSigma,
  /// The location is further from the last trusted snapshot than the
  /// policy's speed bound allows — a corrupted coordinate, not movement.
  kTeleport,
};

const char* ToString(SnapshotFault fault);

/// Knobs of the validation/quarantine stage.
struct ValidationPolicy {
  /// Repair faulty snapshots in place (interpolation between the nearest
  /// trusted neighbors, dead-reckoning-style sigma inflation).  When off,
  /// any fault makes the trajectory quarantine-eligible instead.
  bool repair = true;
  /// Maximum plausible displacement per snapshot interval; a snapshot
  /// further than `max_jump * elapsed_snapshots` from the last trusted one
  /// is a teleport.  0 disables teleport detection.
  double max_jump = 0.0;
  /// Extra sigma per snapshot of distance from the nearest trusted
  /// neighbor, applied to repaired locations: the same "uncertainty grows
  /// with elapse time" regime as Eq. 1's dead reckoning (§3.1).
  double sigma_growth = 0.01;
};

/// What a `Validate` pass did, for logs and the fault-tolerance bench.
struct ValidationReport {
  size_t trajectories = 0;
  size_t snapshots = 0;
  size_t non_finite = 0;
  size_t bad_sigma = 0;
  size_t teleports = 0;
  /// Snapshots rewritten by repair.
  size_t repaired = 0;
  /// Trajectories set aside as too faulty to repair.
  size_t quarantined = 0;
  /// Trajectories discarded for having too few trustworthy snapshots.
  size_t dropped = 0;
  std::vector<std::string> quarantined_ids;

  size_t faults() const { return non_finite + bad_sigma + teleports; }
};

/// The validation & quarantine stage between ingestion and mining: every
/// snapshot is classified (`SnapshotFault`), and each trajectory is then
/// repaired, quarantined, or dropped per the policy.  Deterministic: the
/// same input and policy always produce the same output.
class TrajectoryValidator {
 public:
  /// Smallest sigma a repaired snapshot gets.  Positive, so repaired
  /// snapshots pass the validator's own sigma check.
  static constexpr double kSigmaFloor = 1e-3;
  /// Quarantine a trajectory when more than this fraction of its
  /// snapshots is faulty — too little signal to trust a repair.
  static constexpr double kMaxFaultFraction = 0.5;
  /// Drop a trajectory outright when fewer than this many snapshots are
  /// trustworthy (nothing left to interpolate between).
  static constexpr size_t kMinValidPoints = 2;

  explicit TrajectoryValidator(const ValidationPolicy& policy)
      : policy_(policy) {
    // A negative growth rate could walk an inflated sigma below the
    // floor, and the validator must not manufacture the kBadSigma faults
    // it exists to remove.
    if (!(policy_.sigma_growth >= 0.0)) policy_.sigma_growth = 0.0;
  }

  const ValidationPolicy& policy() const { return policy_; }

  /// Classifies every snapshot of `t`.  Teleport detection anchors on the
  /// first finite snapshot corroborated by its successor and flags any
  /// later snapshot that outruns the speed bound relative to the last
  /// trusted one; dead-reckoned drift inside the bound passes.
  std::vector<SnapshotFault> Classify(const Trajectory& t) const;

  /// Repairs `t` in place.  Faulty locations are linearly interpolated
  /// between the nearest trusted neighbors (held flat past the ends), and
  /// their sigmas inflated by `sigma_growth` per snapshot of distance to a
  /// trusted one.  Returns OK when `t` is usable afterwards;
  /// `kDataLoss` when the fault fraction exceeds `kMaxFaultFraction`
  /// (quarantine), `kFailedPrecondition` when fewer than
  /// `kMinValidPoints` snapshots are trustworthy (drop).
  /// `repaired_count`, if given, receives the number of rewritten
  /// snapshots.
  Status Repair(Trajectory* t, size_t* repaired_count = nullptr) const;

  /// Whole-dataset pass: returns the accepted (repaired) trajectories.
  /// Quarantined trajectories are appended to `*quarantine` when given
  /// (otherwise discarded); unusable ones are always dropped.  Fills
  /// `*report` with counters when given.
  TrajectoryDataset Validate(const TrajectoryDataset& in,
                             ValidationReport* report = nullptr,
                             TrajectoryDataset* quarantine = nullptr) const;

 private:
  ValidationPolicy policy_;
};

}  // namespace trajpattern

#endif  // TRAJPATTERN_TRAJECTORY_VALIDATE_H_

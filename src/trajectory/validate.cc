#include "trajectory/validate.h"

#include <algorithm>
#include <cmath>

#include "geometry/point.h"
#include "obs/obs.h"

namespace trajpattern {
namespace {

bool FiniteCoords(const TrajectoryPoint& p) {
  return std::isfinite(p.mean.x) && std::isfinite(p.mean.y);
}

bool UsableSigma(const TrajectoryPoint& p) {
  return std::isfinite(p.sigma) && p.sigma > 0.0;
}

}  // namespace

const char* ToString(SnapshotFault fault) {
  switch (fault) {
    case SnapshotFault::kOk: return "ok";
    case SnapshotFault::kNonFiniteCoord: return "non_finite_coord";
    case SnapshotFault::kBadSigma: return "bad_sigma";
    case SnapshotFault::kTeleport: return "teleport";
  }
  return "unknown";
}

std::vector<SnapshotFault> TrajectoryValidator::Classify(
    const Trajectory& t) const {
  const size_t n = t.size();
  std::vector<SnapshotFault> out(n, SnapshotFault::kOk);
  for (size_t i = 0; i < n; ++i) {
    if (!FiniteCoords(t[i])) {
      out[i] = SnapshotFault::kNonFiniteCoord;
    } else if (!UsableSigma(t[i])) {
      out[i] = SnapshotFault::kBadSigma;
    }
  }
  if (policy_.max_jump <= 0.0) return out;

  // Teleport detection.  The anchor is the first finite snapshot that is
  // corroborated by a later finite snapshot within the speed bound — an
  // uncorroborated head could itself be the corrupted point, and anchoring
  // on it would condemn the whole (healthy) tail instead.
  auto finite_at = [&](size_t i) { return out[i] != SnapshotFault::kNonFiniteCoord; };
  size_t anchor = n;
  for (size_t i = 0; i < n && anchor == n; ++i) {
    if (!finite_at(i)) continue;
    for (size_t j = i + 1; j < n; ++j) {
      if (!finite_at(j)) continue;
      if (Distance(t[i].mean, t[j].mean) <=
          policy_.max_jump * static_cast<double>(j - i)) {
        anchor = i;
      }
      break;  // only the next finite snapshot corroborates
    }
  }
  if (anchor == n) {
    // No corroborated pair at all: fall back to the first finite snapshot.
    for (size_t i = 0; i < n; ++i) {
      if (finite_at(i)) {
        anchor = i;
        break;
      }
    }
    if (anchor == n) return out;  // nothing finite; nothing to flag
  }
  // Anything before the anchor that could not corroborate it is suspect.
  for (size_t i = 0; i < anchor; ++i) {
    if (finite_at(i) &&
        Distance(t[i].mean, t[anchor].mean) >
            policy_.max_jump * static_cast<double>(anchor - i)) {
      out[i] = SnapshotFault::kTeleport;
    }
  }
  for (size_t i = anchor + 1; i < n; ++i) {
    if (!finite_at(i)) continue;
    if (Distance(t[anchor].mean, t[i].mean) >
        policy_.max_jump * static_cast<double>(i - anchor)) {
      out[i] = SnapshotFault::kTeleport;
    } else {
      anchor = i;
    }
  }
  return out;
}

Status TrajectoryValidator::Repair(Trajectory* t,
                                   size_t* repaired_count) const {
  if (repaired_count != nullptr) *repaired_count = 0;
  const std::vector<SnapshotFault> faults = Classify(*t);
  const size_t n = t->size();
  size_t faulty = 0;
  for (SnapshotFault f : faults) faulty += f != SnapshotFault::kOk;
  const size_t trusted = n - faulty;
  if (trusted < kMinValidPoints) {
    return Status::FailedPrecondition(
        "trajectory '" + t->id() + "': only " + std::to_string(trusted) +
        " trustworthy snapshots of " + std::to_string(n));
  }
  if (faulty == 0) return Status::Ok();
  if (!policy_.repair ||
      static_cast<double>(faulty) >
          kMaxFaultFraction * static_cast<double>(n)) {
    return Status::DataLoss("trajectory '" + t->id() + "': " +
                            std::to_string(faulty) + " of " +
                            std::to_string(n) + " snapshots faulty");
  }

  // Nearest trusted snapshot on each side of every position; at least
  // one side has one.
  static_assert(kMinValidPoints >= 1);
  constexpr size_t kNone = static_cast<size_t>(-1);
  std::vector<size_t> prev(n, kNone), next(n, kNone);
  for (size_t i = 0, last = kNone; i < n; ++i) {
    if (faults[i] == SnapshotFault::kOk) last = i;
    prev[i] = last;
  }
  for (size_t i = n, nxt = kNone; i-- > 0;) {
    if (faults[i] == SnapshotFault::kOk) nxt = i;
    next[i] = nxt;
  }

  for (size_t i = 0; i < n; ++i) {
    if (faults[i] == SnapshotFault::kOk) continue;
    TrajectoryPoint& p = (*t)[i];
    const size_t l = prev[i], r = next[i];
    if (faults[i] == SnapshotFault::kBadSigma) {
      // The location was reported; only the uncertainty is unusable.
      // Copy the nearest trusted sigma (the reporting scheme's sigma is
      // slowly varying); kMinValidPoints >= 1 guarantees one exists.
      if (l != kNone && r != kNone) {
        p.sigma = (i - l) <= (r - i) ? (*t)[l].sigma : (*t)[r].sigma;
      } else if (l != kNone) {
        p.sigma = (*t)[l].sigma;
      } else {
        p.sigma = (*t)[r].sigma;
      }
      p.sigma = std::max(p.sigma, kSigmaFloor);
    } else {
      // The location itself is untrustworthy: interpolate between the
      // trusted neighbors (hold flat past the ends) and inflate sigma with
      // the distance to them — the dead-reckoning uncertainty growth of
      // Eq. 1: the further from a trusted fix, the less we know.
      double base_sigma;
      size_t steps;
      if (l != kNone && r != kNone) {
        const double alpha = static_cast<double>(i - l) /
                             static_cast<double>(r - l);
        p.mean = (*t)[l].mean + ((*t)[r].mean - (*t)[l].mean) * alpha;
        base_sigma = std::max((*t)[l].sigma, (*t)[r].sigma);
        steps = std::min(i - l, r - i);
      } else if (l != kNone) {
        p.mean = (*t)[l].mean;
        base_sigma = (*t)[l].sigma;
        steps = i - l;
      } else {
        p.mean = (*t)[r].mean;
        base_sigma = (*t)[r].sigma;
        steps = r - i;
      }
      p.sigma = std::max(base_sigma, kSigmaFloor) +
                policy_.sigma_growth * static_cast<double>(steps);
    }
    if (repaired_count != nullptr) ++*repaired_count;
  }
  return Status::Ok();
}

TrajectoryDataset TrajectoryValidator::Validate(
    const TrajectoryDataset& in, ValidationReport* report,
    TrajectoryDataset* quarantine) const {
  TP_TRACE_SPAN("validate/dataset");
  ValidationReport local;
  TrajectoryDataset out;
  for (const Trajectory& t : in) {
    ++local.trajectories;
    local.snapshots += t.size();
    for (SnapshotFault f : Classify(t)) {
      switch (f) {
        case SnapshotFault::kOk: break;
        case SnapshotFault::kNonFiniteCoord: ++local.non_finite; break;
        case SnapshotFault::kBadSigma: ++local.bad_sigma; break;
        case SnapshotFault::kTeleport: ++local.teleports; break;
      }
    }
    Trajectory repaired = t;
    size_t repaired_count = 0;
    const Status status = Repair(&repaired, &repaired_count);
    if (status.ok()) {
      local.repaired += repaired_count;
      out.Add(std::move(repaired));
    } else if (status.code() == StatusCode::kDataLoss) {
      ++local.quarantined;
      local.quarantined_ids.push_back(t.id());
      if (quarantine != nullptr) quarantine->Add(t);
    } else {
      ++local.dropped;
    }
  }
  TP_COUNTER_ADD("validate.trajectories", local.trajectories);
  TP_COUNTER_ADD("validate.non_finite", local.non_finite);
  TP_COUNTER_ADD("validate.bad_sigma", local.bad_sigma);
  TP_COUNTER_ADD("validate.teleports", local.teleports);
  TP_COUNTER_ADD("validate.repaired", local.repaired);
  TP_COUNTER_ADD("validate.quarantined", local.quarantined);
  TP_COUNTER_ADD("validate.dropped", local.dropped);
  if (report != nullptr) *report = std::move(local);
  return out;
}

}  // namespace trajpattern

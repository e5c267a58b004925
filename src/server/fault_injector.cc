#include "server/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "prob/rng.h"

namespace trajpattern {

std::vector<ReportEvent> FaultInjector::Inject(
    const std::vector<ReportEvent>& clean, FaultStats* stats) const {
  Rng rng(options_.seed);
  FaultStats local;
  local.input = clean.size();
  std::vector<ReportEvent> out;
  out.reserve(clean.size());
  for (const ReportEvent& event : clean) {
    if (rng.Bernoulli(options_.drop_rate)) {
      ++local.dropped;
      continue;
    }
    ReportEvent e = event;
    if (rng.Bernoulli(options_.corrupt_rate)) {
      ++local.corrupted;
      if (rng.Bernoulli(kCorruptNanFraction)) {
        e.location = Point2(std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::quiet_NaN());
      } else {
        // A finite teleport: displace by corrupt_offset * [0.5, 1.5) in a
        // random direction, far outside any plausible per-step movement.
        const double angle = rng.Uniform(0.0, 2.0 * 3.14159265358979323846);
        const double r = options_.corrupt_offset * rng.Uniform(0.5, 1.5);
        e.location += Point2(r * std::cos(angle), r * std::sin(angle));
      }
    }
    if (rng.Bernoulli(options_.delay_rate)) {
      ++local.delayed;
      e.time += rng.Uniform(0.0, kMaxDelay);
    }
    const bool duplicate = rng.Bernoulli(options_.duplicate_rate);
    const bool reorder = rng.Bernoulli(options_.reorder_rate);
    out.push_back(e);
    if (reorder && out.size() >= 2) {
      ++local.reordered;
      std::swap(out[out.size() - 1], out[out.size() - 2]);
    }
    if (duplicate) {
      ++local.duplicated;
      out.push_back(e);
    }
  }
  local.emitted = out.size();
  if (stats != nullptr) *stats = local;
  return out;
}

StatusOr<FaultInjectorOptions> ParseFaultSpec(const std::string& spec) {
  FaultInjectorOptions opt;
  std::istringstream is(spec);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (item.empty()) continue;
    const size_t colon = item.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("fault spec item '" + item +
                                     "' is not key:rate");
    }
    const std::string key = item.substr(0, colon);
    double rate = 0.0;
    try {
      size_t pos = 0;
      rate = std::stod(item.substr(colon + 1), &pos);
      if (pos != item.size() - colon - 1) throw std::invalid_argument(item);
    } catch (...) {
      return Status::InvalidArgument("fault spec item '" + item +
                                     "' has a malformed rate");
    }
    if (!(rate >= 0.0 && rate <= 1.0)) {
      return Status::InvalidArgument("fault rate for '" + key +
                                     "' must be in [0, 1]");
    }
    if (key == "drop") {
      opt.drop_rate = rate;
    } else if (key == "dup" || key == "duplicate") {
      opt.duplicate_rate = rate;
    } else if (key == "reorder") {
      opt.reorder_rate = rate;
    } else if (key == "delay") {
      opt.delay_rate = rate;
    } else if (key == "corrupt") {
      opt.corrupt_rate = rate;
    } else {
      return Status::InvalidArgument(
          "unknown fault kind '" + key +
          "' (drop|dup|reorder|delay|corrupt)");
    }
  }
  return opt;
}

ReportStream DatasetToReportStream(const TrajectoryDataset& data,
                                   double start_time, double interval) {
  ReportStream stream;
  stream.names.reserve(data.size());
  size_t max_len = 0;
  for (const Trajectory& t : data) {
    stream.names.push_back(t.id());
    max_len = std::max(max_len, t.size());
  }
  // Interleave by snapshot so delivery order matches wall-clock order —
  // the shape an asynchronous fleet actually produces.
  for (size_t s = 0; s < max_len; ++s) {
    for (size_t i = 0; i < data.size(); ++i) {
      if (s >= data[i].size()) continue;
      stream.events.push_back(
          ReportEvent{static_cast<MobileObjectServer::ObjectId>(i),
                      start_time + static_cast<double>(s) * interval,
                      data[i][s].mean});
    }
  }
  return stream;
}

TrajectoryDataset IngestAndSynchronize(
    const ReportStream& stream, const MobileObjectServer::Options& options,
    IngestStats* totals) {
  MobileObjectServer server(options);
  for (const std::string& name : stream.names) server.Register(name);
  for (const ReportEvent& e : stream.events) {
    server.Report(e.object, e.time, e.location);
  }
  if (totals != nullptr) *totals = server.total_ingest_stats();
  return server.SynchronizeAll();
}

}  // namespace trajpattern

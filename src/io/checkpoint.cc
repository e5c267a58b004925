#include "io/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace trajpattern {
namespace {

constexpr const char* kMagicV1 = "trajpattern_checkpoint,v1";
constexpr const char* kMagicV2 = "trajpattern_checkpoint,v2";

std::string HexDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

bool ParseHexDouble(const std::string& s, double* v) {
  if (s.empty()) return false;
  char* end = nullptr;
  *v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  // strtod happily parses "nan"/"nan(0x...)", but no real run ever
  // writes one (NM values are finite or -inf) and a NaN smuggled in by
  // corruption would poison every ω comparison after resume — reject it
  // here at the trust boundary.  -inf stays accepted: it is the genuine
  // initial ω.
  return !std::isnan(*v);
}

bool ParseLong(const std::string& s, long* v) {
  try {
    size_t pos = 0;
    *v = std::stol(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

void WriteCells(const Pattern& p, std::ostream& os) {
  for (size_t j = 0; j < p.length(); ++j) {
    if (j > 0) os << ";";
    if (p[j] == kWildcardCell) {
      os << "*";
    } else {
      os << p[j];
    }
  }
}

bool ParseCells(const std::string& field, std::vector<CellId>* cells) {
  // A trailing ';' means a cell went missing in transit — corrupt, not a
  // formatting nicety to paper over.
  if (field.empty() || field.back() == ';') return false;
  std::string cell;
  std::istringstream cs(field);
  while (std::getline(cs, cell, ';')) {
    if (cell == "*") {
      cells->push_back(kWildcardCell);
    } else {
      long v;
      // Only '*' may stand for a non-grid position: a negative or
      // CellId-overflowing value would index out of the engine's cell
      // tables after resume, so it is rejected here, at the trust
      // boundary.
      if (!ParseLong(cell, &v) || v < 0 ||
          v > std::numeric_limits<CellId>::max()) {
        return false;
      }
      cells->push_back(static_cast<CellId>(v));
    }
  }
  return !cells->empty();
}

/// "key,value" line reader that tracks line numbers for diagnostics.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  bool Next(std::string* line) {
    if (!std::getline(is_, *line)) return false;
    ++line_number_;
    return true;
  }

  size_t line_number() const { return line_number_; }

  Status Error(const std::string& what) const {
    return Status::DataLoss("checkpoint line " +
                            std::to_string(line_number_) + ": " + what);
  }

 private:
  std::istream& is_;
  size_t line_number_ = 0;
};

}  // namespace

Status WriteMinerCheckpoint(const MinerCheckpoint& cp, std::ostream& os) {
  TP_TRACE_SPAN("checkpoint/write");
  TP_COUNTER_INC("checkpoint.writes");
  os << kMagicV2 << "\n";
  os << "iteration," << cp.iteration << "\n";
  os << "k," << cp.k << "\n";
  os << "omega," << HexDouble(cp.omega) << "\n";
  os << "candidates_evaluated," << cp.candidates_evaluated << "\n";
  os << "candidates_pruned," << cp.candidates_pruned << "\n";
  os << "scores," << cp.scores.size() << "\n";
  for (const ScoredPattern& sp : cp.scores) {
    os << HexDouble(sp.nm) << ",";
    WriteCells(sp.pattern, os);
    os << "\n";
  }
  os << "prev_high," << cp.prev_high.size() << "\n";
  for (const Pattern& p : cp.prev_high) {
    WriteCells(p, os);
    os << "\n";
  }
  os << "prev_queue," << cp.prev_queue.size() << "\n";
  for (const Pattern& p : cp.prev_queue) {
    WriteCells(p, os);
    os << "\n";
  }
  os << "end\n";
  if (!os) return Status::DataLoss("checkpoint stream write failed");
  return Status::Ok();
}

Status ReadMinerCheckpoint(std::istream& is, MinerCheckpoint* cp) {
  TP_TRACE_SPAN("checkpoint/read");
  TP_COUNTER_INC("checkpoint.reads");
  // Parse into a local and publish only on success: a caller whose read
  // fails must be left with a default checkpoint, not a half-loaded one.
  MinerCheckpoint out;
  LineReader reader(is);
  std::string line;
  if (!reader.Next(&line) || (line != kMagicV1 && line != kMagicV2)) {
    return Status::DataLoss(
        "not a trajpattern checkpoint (bad or missing header)");
  }
  const bool v2 = line == kMagicV2;
  // Fixed "key,count-or-value" headers followed by their payload blocks.
  auto expect_keyed_long = [&](const std::string& key, long* value) {
    if (!reader.Next(&line)) return reader.Error("truncated before " + key);
    const size_t comma = line.find(',');
    if (comma == std::string::npos || line.substr(0, comma) != key) {
      return reader.Error("expected '" + key + ",<n>'");
    }
    if (!ParseLong(line.substr(comma + 1), value)) {
      return reader.Error("malformed count for " + key);
    }
    return Status::Ok();
  };

  long iteration, k;
  Status s = expect_keyed_long("iteration", &iteration);
  if (!s.ok()) return s;
  s = expect_keyed_long("k", &k);
  if (!s.ok()) return s;
  if (iteration < 0 || k <= 0) {
    return reader.Error("iteration/k out of range");
  }
  out.iteration = static_cast<int>(iteration);
  out.k = static_cast<int>(k);

  if (!reader.Next(&line) || line.rfind("omega,", 0) != 0 ||
      !ParseHexDouble(line.substr(6), &out.omega)) {
    return reader.Error("expected 'omega,<hexfloat>'");
  }

  // v2 adds cumulative work counters; v1 files leave them default (0).
  if (v2) {
    long evaluated, pruned;
    Status sv = expect_keyed_long("candidates_evaluated", &evaluated);
    if (!sv.ok()) return sv;
    sv = expect_keyed_long("candidates_pruned", &pruned);
    if (!sv.ok()) return sv;
    if (evaluated < 0 || pruned < 0) {
      return reader.Error("negative work counter");
    }
    out.candidates_evaluated = evaluated;
    out.candidates_pruned = pruned;
  }

  // Block counts come from the (possibly corrupt) file: reserving them
  // verbatim would turn one flipped digit into an allocation bomb
  // (std::bad_alloc escaping instead of a typed Status).  Counts are
  // bounded by what a real mining run can write, and reservation is
  // additionally capped — an overstated count then fails the truncation
  // check line by line instead of up front in the allocator.
  constexpr long kMaxBlockCount = 100000000;  // 10^8 rows ≈ tens of GB
  constexpr size_t kMaxReserve = 1 << 20;

  long count;
  s = expect_keyed_long("scores", &count);
  if (!s.ok()) return s;
  if (count < 0 || count > kMaxBlockCount) {
    return reader.Error("implausible scores count");
  }
  out.scores.reserve(std::min(static_cast<size_t>(count), kMaxReserve));
  for (long i = 0; i < count; ++i) {
    if (!reader.Next(&line)) return reader.Error("truncated score block");
    const size_t comma = line.find(',');
    if (comma == std::string::npos) return reader.Error("score row needs nm,cells");
    double nm;
    std::vector<CellId> cells;
    if (!ParseHexDouble(line.substr(0, comma), &nm) ||
        !ParseCells(line.substr(comma + 1), &cells)) {
      return reader.Error("malformed score row");
    }
    out.scores.push_back({Pattern(std::move(cells)), nm});
  }

  for (std::vector<Pattern>* block : {&out.prev_high, &out.prev_queue}) {
    const std::string key =
        block == &out.prev_high ? "prev_high" : "prev_queue";
    s = expect_keyed_long(key, &count);
    if (!s.ok()) return s;
    if (count < 0 || count > kMaxBlockCount) {
      return reader.Error("implausible " + key + " count");
    }
    block->reserve(std::min(static_cast<size_t>(count), kMaxReserve));
    for (long i = 0; i < count; ++i) {
      if (!reader.Next(&line)) return reader.Error("truncated " + key);
      std::vector<CellId> cells;
      if (!ParseCells(line, &cells)) return reader.Error("malformed " + key + " row");
      block->emplace_back(std::move(cells));
    }
  }

  if (!reader.Next(&line) || line != "end") {
    return reader.Error("missing 'end' trailer (truncated checkpoint)");
  }
  *cp = std::move(out);
  return Status::Ok();
}

Status WriteMinerCheckpointFile(const MinerCheckpoint& cp,
                                const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) return Status::NotFound("cannot open " + tmp + " for writing");
    const Status s = WriteMinerCheckpoint(cp, os);
    if (!s.ok()) return s;
    os.flush();
    if (!os) return Status::DataLoss("flush failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::DataLoss("cannot rename " + tmp + " over " + path);
  }
  return Status::Ok();
}

Status ReadMinerCheckpointFile(const std::string& path, MinerCheckpoint* cp) {
  std::ifstream is(path);
  if (!is) return Status::NotFound("cannot open " + path);
  return ReadMinerCheckpoint(is, cp);
}

}  // namespace trajpattern

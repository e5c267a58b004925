#ifndef TRAJPATTERN_PERFBENCH_BENCH_LOGIC_H_
#define TRAJPATTERN_PERFBENCH_BENCH_LOGIC_H_

// The benchmark's own bookkeeping, kept apart from the pipeline so its
// tests need no mining run: top-k digests, reference tables, span self
// times and the stage-sum check, medians, and the result line.

#include <cstdint>
#include <istream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/pattern.h"

namespace perfbench {

/// One line per rank: "<rank> <cell>,<cell>,... <nm as %a hexfloat>".
/// Hexfloat keeps every bit of the NM, so any change to the answer shows.
std::vector<std::string> TopKDigest(
    const std::vector<trajpattern::ScoredPattern>& top_k);

/// Index of the first line where `got` and `want` differ, or -1 when they
/// are equal.  A length mismatch differs at the shorter length.
long FirstDifference(const std::vector<std::string>& got,
                     const std::vector<std::string>& want);

/// A digest line's 32-bit FNV-1a hash as 8 hex digits: the stored form of
/// a reference line, one per rank.
std::string LineHash(const std::string& line);
std::vector<std::string> LineHashes(const std::vector<std::string>& digest);

/// Stored reference digests, as line hashes, keyed by (workload, seed).
using ReferenceTable =
    std::map<std::pair<std::string, uint64_t>, std::vector<std::string>>;

/// Parses "<workload> <seed> <hash> <hash> ..." records, one per line
/// ('#' starts a comment line).  False on a malformed or repeated record,
/// with the line number in `*error`.
bool ParseReferences(std::istream& in, ReferenceTable* table,
                     std::string* error);

/// The reference record of `digest` for (workload, seed), with a newline.
std::string FormatReference(const std::string& workload, uint64_t seed,
                            const std::vector<std::string>& digest);

/// A complete trace span on one thread, in microseconds.
struct Span {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
};

/// Self time per span name, in seconds, summed over that name's spans: a
/// span's duration minus the durations of the spans nested directly inside
/// it.  Spans must come from one thread and nest properly.
std::map<std::string, double> SelfSeconds(std::vector<Span> spans);

/// Sum of the stage spans' durations against the traced wall-clock, as
/// |wall - sum| / wall in percent.  The stages tile the pipeline, so a gap
/// means time the stage spans do not see.
double StageSumGapPct(const std::vector<Span>& stages, double wall_seconds);

/// The largest stage-sum gap the traced run accepts.
inline constexpr double kMaxStageSumGapPct = 2.0;

/// The `q`-quantile of `values`, 0 <= q <= 1, interpolated linearly
/// between the two nearest ranks (the mean of the middle two for the
/// median of an even count); 0 for an empty list.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// `s` as a JSON string literal (quotes and backslashes escaped).
std::string JsonQuote(const std::string& s);

/// The result line: {"correct", "attempted", "failed", "metrics"}, every
/// value printed with all its digits.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // TRAJPATTERN_PERFBENCH_BENCH_LOGIC_H_

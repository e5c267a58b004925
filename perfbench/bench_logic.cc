#include "bench_logic.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

std::vector<std::string> TopKDigest(
    const std::vector<trajpattern::ScoredPattern>& top_k) {
  std::vector<std::string> lines;
  lines.reserve(top_k.size());
  for (size_t r = 0; r < top_k.size(); ++r) {
    std::string line = std::to_string(r + 1) + " ";
    const auto& cells = top_k[r].pattern.cells();
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) line += ',';
      line += std::to_string(cells[i]);
    }
    char nm[64];
    std::snprintf(nm, sizeof(nm), " %a", top_k[r].nm);
    lines.push_back(line + nm);
  }
  return lines;
}

long FirstDifference(const std::vector<std::string>& got,
                     const std::vector<std::string>& want) {
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (got[i] != want[i]) return static_cast<long>(i);
  }
  return got.size() == want.size() ? -1 : static_cast<long>(n);
}

std::string LineHash(const std::string& line) {
  uint32_t h = 2166136261u;
  for (unsigned char c : line) {
    h ^= c;
    h *= 16777619u;
  }
  char hex[9];
  std::snprintf(hex, sizeof(hex), "%08x", h);
  return hex;
}

std::vector<std::string> LineHashes(const std::vector<std::string>& digest) {
  std::vector<std::string> out;
  out.reserve(digest.size());
  for (const std::string& line : digest) out.push_back(LineHash(line));
  return out;
}

bool ParseReferences(std::istream& in, ReferenceTable* table,
                     std::string* error) {
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::string seed_text;
    fields >> workload >> seed_text;
    std::vector<std::string> hashes;
    bool ok = !workload.empty() && !seed_text.empty() &&
              seed_text.size() <= 19 &&
              seed_text.find_first_not_of("0123456789") == std::string::npos;
    for (std::string h; ok && fields >> h;) {
      ok = h.size() == 8 &&
           h.find_first_not_of("0123456789abcdef") == std::string::npos;
      hashes.push_back(h);
    }
    ok = ok && !hashes.empty() &&
         table->emplace(std::make_pair(workload, std::stoull(seed_text)),
                        hashes)
             .second;
    if (!ok) {
      *error = "references line " + std::to_string(line_no) +
               " is malformed or repeated";
      return false;
    }
  }
  return true;
}

std::string FormatReference(const std::string& workload, uint64_t seed,
                            const std::vector<std::string>& digest) {
  std::string out = workload + " " + std::to_string(seed);
  for (const std::string& h : LineHashes(digest)) out += " " + h;
  return out + "\n";
}

std::map<std::string, double> SelfSeconds(std::vector<Span> spans) {
  // Outer spans first: by start, then the longer one.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.dur_us > b.dur_us;
  });
  std::map<std::string, double> self_us;
  std::vector<const Span*> open;
  for (const Span& s : spans) {
    while (!open.empty() &&
           open.back()->start_us + open.back()->dur_us <= s.start_us) {
      open.pop_back();
    }
    if (!open.empty()) self_us[open.back()->name] -= s.dur_us;
    self_us[s.name] += s.dur_us;
    open.push_back(&s);
  }
  std::map<std::string, double> out;
  for (const auto& [name, us] : self_us) out[name] = us * 1e-6;
  return out;
}

double StageSumGapPct(const std::vector<Span>& stages, double wall_seconds) {
  double sum_us = 0.0;
  for (const Span& s : stages) sum_us += s.dur_us;
  return std::fabs(wall_seconds - sum_us * 1e-6) / wall_seconds * 100.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t below = static_cast<size_t>(rank);
  if (below + 1 >= values.size()) return values.back();
  const double frac = rank - static_cast<double>(below);
  return values[below] + frac * (values[below + 1] - values[below]);
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    // %.17g round-trips every double; JSON has no NaN or infinity.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

}  // namespace perfbench

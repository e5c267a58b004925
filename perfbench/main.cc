// pipeline_bench: runs one benchmark workload on one seed and prints
// its metrics, ending with the one-line JSON result.  run.py builds and
// calls it; by hand:
//
//   pipeline_bench --workload zebra_wide --seed 1 --seconds 10 --trace 0
//       [--references perfbench/references.txt] [--out result.json]
//       [--print_reference]
//
// --trace 1 adds traced repetitions and prints the per-layer metrics in
// the result line instead of the end-to-end ones.  --print_reference runs
// only the reference repetition and prints its reference-file record.
// Exits 1 on a wrong answer or a traced stage sum off by more than 2%, and
// 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "bench_logic.h"
#include "bench_run.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "pipeline_bench: %s\nusage: pipeline_bench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--references FILE] "
               "[--out FILE] [--print_reference]\n",
               why.c_str());
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::stoull(text);
  return true;
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonQuote(items[i]);
  }
  return out + "]";
}

void PrintMetrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-10s %-38s %.6g %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool print_reference = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage("unexpected argument " + key);
    key = key.substr(2);
    if (key == "print_reference") {
      print_reference = true;
      continue;
    }
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      args[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      return Usage("--" + key + " needs a value");
    }
  }
  for (const auto& [key, value] : args) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "references" && key != "out") {
      return Usage("unknown flag --" + key);
    }
  }

  const Workload* w = FindWorkload(args["workload"]);
  if (w == nullptr) return Usage("unknown workload '" + args["workload"] + "'");
  RunOptions options;
  uint64_t seconds = 0;
  if (!ParseUint(args["seed"], &options.seed)) return Usage("bad --seed");
  if (!ParseUint(args["seconds"], &seconds) || seconds > 3600) {
    return Usage("bad --seconds");
  }
  options.seconds = static_cast<double>(seconds);
  if (args["trace"] != "0" && args["trace"] != "1") {
    return Usage("--trace must be 0 or 1");
  }
  options.trace = args["trace"] == "1";

  ReferenceTable references;
  if (args.count("references") > 0) {
    std::ifstream in(args["references"]);
    std::string error;
    if (!in) return Usage("cannot read " + args["references"]);
    if (!ParseReferences(in, &references, &error)) return Usage(error);
    options.references = &references;
  }

  const std::string stamp = MachineStampJson(*w, options.seed);
  std::printf("machine %s\n", stamp.c_str());
  std::fflush(stdout);

  if (print_reference) {
    options.min_reps = 0;
    options.seconds = 0.0;
  }
  const RunOutcome outcome = RunBenchmark(*w, options);
  for (const std::string& e : outcome.errors) {
    std::fprintf(stderr, "FAIL %s\n", e.c_str());
  }
  if (print_reference) {
    std::fputs(
        FormatReference(w->name, options.seed, outcome.reference_digest)
            .c_str(),
        stdout);
    return outcome.correct ? 0 : 1;
  }
  std::printf("reference  %s (%zu lines)\n", outcome.reference_source.c_str(),
              outcome.reference_digest.size());
  const std::vector<double>& reps = outcome.pipeline_samples;
  std::printf(
      "samples    pipeline_s n=%zu min %.4f p25 %.4f median %.4f p75 %.4f "
      "max %.4f s\n",
      reps.size(), Quantile(reps, 0.0), Quantile(reps, 0.25), Median(reps),
      Quantile(reps, 0.75), Quantile(reps, 1.0));
  PrintMetrics("end_to_end", outcome.end_to_end);
  PrintMetrics("per_layer", outcome.per_layer);

  const std::string result =
      ResultJson(outcome.correct, outcome.attempted, outcome.failed,
                 options.trace ? outcome.per_layer : outcome.end_to_end);
  if (args.count("out") > 0) {
    std::ofstream file(args["out"]);
    file << "{\"machine\": " << stamp << ",\n \"reference\": \""
         << outcome.reference_source << "\",\n \"errors\": "
         << JsonList(outcome.errors) << ",\n \"result\": " << result
         << "}\n";
    if (!file) std::fprintf(stderr, "cannot write %s\n", args["out"].c_str());
  }
  std::printf("%s\n", result.c_str());
  return outcome.correct ? 0 : 1;
}

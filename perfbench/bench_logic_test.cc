// Tests of the benchmark's own logic: digest stability, the reference
// table, span self times and the stage-sum check, and the names of every
// emitted metric against BENCHMARK.json.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "bench_logic.h"
#include "bench_run.h"
#include "workloads.h"

namespace perfbench {
namespace {

using trajpattern::kWildcardCell;
using trajpattern::Pattern;
using trajpattern::ScoredPattern;

// A few-millisecond zebra workload with every pipeline feature on: faults,
// sparse reports, a budget that evicts, and a beam.
Workload TinyZebra() {
  Workload w;
  w.name = "tiny_zebra";
  w.num_trajectories = 40;
  w.num_snapshots = 12;
  w.grid_side = 5;
  w.k = 5;
  w.max_pattern_length = 3;
  w.beam = 200;
  w.max_iterations = 2;
  w.memory_budget_bytes = 10 * 40 * 12 * sizeof(double);  // 10 columns
  w.report_every = 2;
  w.faults = true;
  return w;
}

Workload TinyBus() {
  Workload w = *FindWorkload("bus_predict");
  w.name = "tiny_bus";
  w.k = 10;
  w.beam = 300;
  w.max_iterations = 3;
  return w;
}

RunOptions QuickRun(bool trace) {
  RunOptions o;
  o.seed = 3;
  o.seconds = 0.0;
  o.min_reps = 2;
  o.trace = trace;
  o.traced_reps = 1;
  return o;
}

TEST(Digest, LinesCarryCellsAndEveryBitOfTheNm) {
  const std::vector<ScoredPattern> top = {
      {Pattern(std::vector<int32_t>{3, 4}), -1.5},
      {Pattern(std::vector<int32_t>{7, kWildcardCell, 9}), -2.0}};
  EXPECT_EQ(TopKDigest(top),
            (std::vector<std::string>{"1 3,4 -0x1.8p+0", "2 7,-2,9 -0x1p+1"}));

  std::vector<ScoredPattern> nudged = top;
  nudged[1].nm = std::nextafter(-2.0, 0.0);
  EXPECT_EQ(FirstDifference(TopKDigest(nudged), TopKDigest(top)), 1);
}

TEST(Digest, FirstDifferenceReportsTheFirstLine) {
  const std::vector<std::string> a = {"1 x", "2 y"};
  EXPECT_EQ(FirstDifference(a, a), -1);
  EXPECT_EQ(FirstDifference({"1 x"}, a), 1);
  EXPECT_EQ(FirstDifference({"1 z", "2 y"}, a), 0);
}

TEST(Digest, StableAcrossRepetitionsBudgetsAndRegeneratedInputs) {
  const Workload w = TinyZebra();
  const Inputs in = MakeInputs(w, 7);
  const Rep checked =
      RunPipeline(w, in, /*budgeted=*/true, /*self_check=*/true);
  EXPECT_EQ(checked.self_check_error, "");
  EXPECT_GT(checked.cells_evicted, 0) << "the budget should force evictions";
  EXPECT_GT(checked.reports_rejected, 0) << "the faults should reach ingest";
  EXPECT_EQ(checked.digest.size(), static_cast<size_t>(w.k));

  EXPECT_EQ(RunPipeline(w, in, true, false).digest, checked.digest);
  EXPECT_EQ(RunPipeline(w, in, /*budgeted=*/false, false).digest,
            checked.digest);
  EXPECT_EQ(RunPipeline(w, MakeInputs(w, 7), true, false).digest,
            checked.digest);
  EXPECT_NE(RunPipeline(w, MakeInputs(w, 8), true, false).digest,
            checked.digest);
}

TEST(Digest, BusSeedOneReproducesFigureThree) {
  const Workload& w = *FindWorkload("bus_predict");
  const Rep rep = RunPipeline(w, MakeInputs(w, 1), true, false);
  // bench/fig3_prediction's LM row: 2042 -> 1604 mis-predictions (21.4%).
  EXPECT_EQ(rep.predict_base.mispredictions, 2042);
  EXPECT_EQ(rep.predict_assisted.mispredictions, 1604);
  EXPECT_EQ(rep.digest.back(), "mispredictions 2042 1604");
}

TEST(References, RoundTripAndRejectMalformedLines) {
  const std::vector<std::string> digest = {"1 3,4 -0x1.8p+0", "2 5 -0x1p+1"};
  EXPECT_EQ(LineHash("1 3,4 -0x1.8p+0"), LineHashes(digest)[0]);
  EXPECT_NE(LineHash("1 3,4 -0x1.8p+0"), LineHash("1 3,4 -0x1.8p+1"));
  std::istringstream in("# comment\n" + FormatReference("w", 42, digest) +
                        FormatReference("w", 43, {"x"}));
  ReferenceTable table;
  std::string error;
  ASSERT_TRUE(ParseReferences(in, &table, &error)) << error;
  EXPECT_EQ(table.at({"w", 42}), LineHashes(digest));
  EXPECT_EQ(table.size(), 2u);

  for (const std::string bad :
       {"w 4x 0123abcd\n", "w 42\n", "w\n", "w 42 0123abcz\n",
        "w 42 0123abc\n", "w 1 0123abcd\nw 1 0123abcd\n"}) {
    std::istringstream bad_in(bad);
    ReferenceTable t;
    EXPECT_FALSE(ParseReferences(bad_in, &t, &error)) << bad;
    EXPECT_NE(error.find("line"), std::string::npos);
  }
}

TEST(References, StoredMismatchFailsTheRunAndNamesTheLine) {
  const Workload w = TinyZebra();
  RunOptions options = QuickRun(false);
  const RunOutcome clean = RunBenchmark(w, options);
  ASSERT_TRUE(clean.correct);
  EXPECT_EQ(clean.reference_source, "in-run");

  ReferenceTable table;
  table[{w.name, options.seed}] = LineHashes(clean.reference_digest);
  options.references = &table;
  const RunOutcome stored = RunBenchmark(w, options);
  EXPECT_TRUE(stored.correct);
  EXPECT_EQ(stored.reference_source, "stored");

  table[{w.name, options.seed}][2] = "00000000";
  const RunOutcome wrong = RunBenchmark(w, options);
  EXPECT_FALSE(wrong.correct);
  EXPECT_EQ(wrong.failed, wrong.attempted);
  ASSERT_FALSE(wrong.errors.empty());
  EXPECT_NE(wrong.errors[0].find("line 3"), std::string::npos)
      << wrong.errors[0];
}

TEST(StageSum, SelfSecondsSubtractsDirectlyNestedSpans) {
  const std::vector<Span> spans = {
      {"ingest", 0, 10},   {"mine", 10, 100}, {"nm/warmup", 20, 20},
      {"nm/scoring", 40, 50}, {"miner/rebuild", 95, 5}, {"group", 110, 4},
      {"mine", 114, 6},   {"nm/scoring", 115, 2}};
  const std::map<std::string, double> self = SelfSeconds(spans);
  EXPECT_DOUBLE_EQ(self.at("ingest"), 10e-6);
  EXPECT_DOUBLE_EQ(self.at("mine"), (100 - 20 - 50 - 5 + 6 - 2) * 1e-6);
  EXPECT_DOUBLE_EQ(self.at("nm/scoring"), 52e-6);
  EXPECT_DOUBLE_EQ(self.at("group"), 4e-6);
}

TEST(StageSum, TilingStagesHaveNoGapAndAMissingStageShows) {
  const std::vector<Span> stages = {{"ingest", 0, 10}, {"mine", 10, 20}};
  EXPECT_NEAR(StageSumGapPct(stages, 30e-6), 0.0, 1e-9);
  EXPECT_NEAR(StageSumGapPct(stages, 40e-6), 25.0, 1e-9);
  EXPECT_GT(StageSumGapPct(stages, 40e-6), kMaxStageSumGapPct);
}

TEST(StageSum, TracedRunsOfBothPipelinesPassTheCheck) {
  for (const Workload& w : {TinyZebra(), TinyBus()}) {
    const RunOutcome out = RunBenchmark(w, QuickRun(true));
    EXPECT_TRUE(out.correct) << w.name << ": "
                             << (out.errors.empty() ? "" : out.errors[0]);
    std::map<std::string, double> v;
    for (const Metric& m : out.per_layer) v[m.name] = m.value;
    EXPECT_LE(v.at("trace.stage_sum_gap_pct"), kMaxStageSumGapPct);
    EXPECT_GT(v.at("miner.mine_s"), 0.0);
    EXPECT_GT(v.at("nm_engine.score_s"), 0.0);
    EXPECT_GT(v.at("miner.candidates_evaluated"), 0.0);
  }
}

TEST(Metrics, ResultLineKeepsEveryDigit) {
  EXPECT_EQ(ResultJson(true, 3, 0, {{"pipeline_s", "s", 1.2345678901234567}}),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"pipeline_s\": {\"value\": 1.2345678901234567, "
            "\"unit\": \"s\"}}}");
}

TEST(Metrics, QuantilesInterpolateBetweenRanks) {
  EXPECT_EQ(Quantile({}, 0.25), 0.0);
  EXPECT_EQ(Quantile({7.0}, 0.25), 7.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  // Ranks 0..4; the lower quartile sits at rank 1, the 0.1-quantile at
  // rank 0.4.
  const std::vector<double> v = {50.0, 10.0, 40.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.1), 14.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 50.0);
}

// (name, unit) pairs of one section of BENCHMARK.json.
std::vector<std::pair<std::string, std::string>> Declared(
    const std::string& section) {
  std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  const std::string all = text.str();
  const size_t begin = all.find("\"" + section + "\"");
  const size_t end = all.find(']', begin);
  EXPECT_NE(begin, std::string::npos) << section;
  const std::string body = all.substr(begin, end - begin);
  const std::regex entry(
      R"re(\{"name": "([^"]*)"(?:, "unit": "([^"]*)")?)re");
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = std::sregex_iterator(body.begin(), body.end(), entry);
       it != std::sregex_iterator(); ++it) {
    out.emplace_back((*it)[1], (*it)[2]);
  }
  return out;
}

TEST(Metrics, EmittedNamesAreValidUniqueAndMatchBenchmarkJson) {
  const RunOutcome out = RunBenchmark(TinyZebra(), QuickRun(true));
  ASSERT_TRUE(out.correct);
  const std::regex name_chars("[A-Za-z0-9_.-]+");
  for (const auto& [section, metrics] :
       {std::pair{"end_to_end", out.end_to_end},
        std::pair{"per_layer", out.per_layer}}) {
    std::vector<std::pair<std::string, std::string>> emitted;
    std::set<std::string> seen;
    for (const Metric& m : metrics) {
      EXPECT_TRUE(std::regex_match(m.name, name_chars)) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
      EXPECT_TRUE(std::isfinite(m.value)) << m.name;
      emitted.emplace_back(m.name, m.unit);
    }
    EXPECT_EQ(emitted, Declared(section)) << section;
  }
  std::vector<std::pair<std::string, std::string>> workloads;
  for (const Workload& w : Workloads()) workloads.emplace_back(w.name, "");
  EXPECT_EQ(workloads, Declared("workloads"));
}

}  // namespace
}  // namespace perfbench

// Thread scaling of batch candidate scoring on a Fig. 4a-sized ZebraNet
// workload (§4.4's hot path: candidates x trajectories x windows).  Times
// NmTotalBatch at 1/2/4/8 worker threads (each batch cold, then re-scored
// warm to show the incremental warm-up) and reports each row's speedup
// over the 1-thread batch row, which always runs.  Every batch result is
// checked bit-identical to untimed one-at-a-time NmEngine::NmTotal calls,
// the per-pattern gather reference.  An end-to-end mining run is swept
// over the same thread list.  The sweep is clamped to the machine: by
// default only the serial row and rows within hardware concurrency run;
// an explicit --threads_list keeps oversubscribed rows but marks them
// "oversubscribed": true in the JSON artifact.  Writes
// BENCH_parallel_scoring.json (override with --json=PATH;
// --threads_list=1,2,4,8 --candidates=N to reshape).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/simd_kernels.h"
#include "io/obs_flags.h"
#include "parallel/thread_pool.h"
#include "stats/table.h"

namespace tb = trajpattern::bench;
using trajpattern::BatchScoreStats;
using trajpattern::CellId;
using trajpattern::Flags;
using trajpattern::MineTrajPatterns;
using trajpattern::MinerOptions;
using trajpattern::MiningResult;
using trajpattern::NmEngine;
using trajpattern::Pattern;
using trajpattern::ResolveThreadCount;
using trajpattern::Table;
using trajpattern::WallTimer;

namespace {

/// A candidate set shaped like a mining iteration's: all singulars plus
/// length-2 and length-3 concatenations over the touched alphabet, in
/// deterministic order, capped at `limit`.
std::vector<Pattern> MakeCandidates(const NmEngine& engine, size_t limit) {
  const std::vector<CellId> cells = engine.TouchedCells();
  std::vector<Pattern> out;
  for (CellId c : cells) {
    if (out.size() >= limit) return out;
    out.push_back(Pattern(c));
  }
  for (CellId a : cells) {
    for (CellId b : cells) {
      if (out.size() >= limit) return out;
      out.push_back(Pattern(std::vector<CellId>{a, b}));
    }
  }
  for (CellId a : cells) {
    for (CellId b : cells) {
      if (out.size() >= limit) return out;
      out.push_back(Pattern(std::vector<CellId>{a, b, a}));
    }
  }
  return out;
}

std::vector<int> ParseThreadsList(const std::string& csv) {
  std::vector<int> out;
  int value = 0;
  bool have = false;
  for (char ch : csv) {
    if (ch >= '0' && ch <= '9') {
      value = value * 10 + (ch - '0');
      have = true;
    } else if (have) {
      out.push_back(value);
      value = 0;
      have = false;
    }
  }
  if (have) out.push_back(value);
  return out.empty() ? std::vector<int>{1, 2, 4, 8} : out;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  tb::Fig4Config cfg = tb::ParseFig4Config(flags);
  const size_t num_candidates =
      static_cast<size_t>(flags.GetInt("candidates", 4000));
  // The sweep is clamped to the machine: the default list drops rows a
  // 1-core runner cannot run in parallel; an explicit --threads_list
  // keeps them but flags them "oversubscribed" in the artifact.
  std::vector<tb::ThreadSweepRow> sweep = tb::ClampThreadSweep(
      ParseThreadsList(flags.GetString("threads_list", "1,2,4,8")),
      flags.Has("threads_list"));
  // Speedups are relative to the 1-thread batch row, so it always runs.
  if (std::none_of(sweep.begin(), sweep.end(),
                   [](const tb::ThreadSweepRow& r) { return r.threads == 1; })) {
    sweep.insert(sweep.begin(), {1, false});
  }
  std::vector<int> threads_list;
  for (const tb::ThreadSweepRow& r : sweep) threads_list.push_back(r.threads);
  const std::string json_path =
      flags.GetString("json", tb::DefaultJsonPath("BENCH_parallel_scoring.json"));
  const trajpattern::ObsOptions obs_opts = trajpattern::ParseObsOptions(flags);
  trajpattern::StartObservability(obs_opts);

  const auto data = tb::MakeZebraData(cfg);
  const auto space = tb::MakeSpace(cfg);

  const int hardware_threads = tb::HardwareThreads();
  const std::string hw_warning = tb::OversubscriptionWarning(threads_list);
  std::printf(
      "Parallel batch scoring  (S=%d, L=%d, G=%d, candidates<=%zu, "
      "hardware=%d, simd=%s)\n",
      cfg.num_trajectories, cfg.avg_length, cfg.grid_side * cfg.grid_side,
      num_candidates, hardware_threads, trajpattern::simd::ActiveLevelName());
  if (!hw_warning.empty()) {
    std::printf("WARNING: %s\n", hw_warning.c_str());
  }

  // ---- untimed identity reference: one NmTotal call per candidate.
  NmEngine serial_engine(data, space);
  const std::vector<Pattern> candidates =
      MakeCandidates(serial_engine, num_candidates);
  std::vector<double> serial_scores;
  serial_scores.reserve(candidates.size());
  for (const Pattern& p : candidates) {
    serial_scores.push_back(serial_engine.NmTotal(p));
  }

  // ---- batch runs at each thread count, fresh engine each (cold cache
  // so the warm-up split is visible), then the same batch again on the
  // warm engine: the incremental warm-up must find every column resident
  // (cells_warmed == 0, all hits) and spend ~nothing in the warm-up span.
  struct Row {
    int threads;
    bool oversubscribed;
    BatchScoreStats stats;
    double seconds;
    bool identical;
    BatchScoreStats rebatch_stats;
    double rebatch_seconds;
    bool rebatch_identical;
  };
  auto identical_to_serial = [&](const std::vector<double>& scores) {
    if (scores.size() != serial_scores.size()) return false;
    for (size_t i = 0; i < scores.size(); ++i) {
      if (std::memcmp(&scores[i], &serial_scores[i], sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  };
  std::vector<Row> rows;
  for (const tb::ThreadSweepRow& sw : sweep) {
    NmEngine engine(data, space);
    WallTimer t;
    BatchScoreStats stats;
    const std::vector<double> scores =
        engine.NmTotalBatch(candidates, sw.threads, &stats);
    const double seconds = t.Seconds();
    t.Reset();
    BatchScoreStats restats;
    const std::vector<double> rescores =
        engine.NmTotalBatch(candidates, sw.threads, &restats);
    const double reseconds = t.Seconds();
    rows.push_back({sw.threads, sw.oversubscribed, stats, seconds,
                    identical_to_serial(scores), restats, reseconds,
                    identical_to_serial(rescores)});
  }
  const Row& row_1t = *std::find_if(
      rows.begin(), rows.end(), [](const Row& r) { return r.threads == 1; });

  Table table({"threads", "batch (s)", "warmup (s)", "scoring (s)", "speedup",
               "cells", "hits", "rebatch (s)", "identical"});
  for (const Row& r : rows) {
    table.AddRow({std::to_string(r.threads), Table::Num(r.seconds),
                  Table::Num(r.stats.warmup_seconds),
                  Table::Num(r.stats.scoring_seconds),
                  Table::Num(row_1t.seconds / r.seconds),
                  std::to_string(r.stats.cells_warmed),
                  std::to_string(r.stats.cells_hit),
                  Table::Num(r.rebatch_seconds),
                  r.identical && r.rebatch_identical ? "yes" : "NO"});
  }
  std::printf("1-thread batch: %.4f s over %zu candidates\n",
              row_1t.seconds, candidates.size());
  table.Print();

  // ---- end-to-end mining, swept over the same thread list as the batch
  // section; each row reports the worker count the run actually used
  // (the old single-row report hardcoded what became "parallel_threads":
  // 1 in the artifact, hiding the pool size behind the request).
  MinerOptions mopt = tb::MakeMinerOptions(cfg);
  mopt.num_threads = 1;
  NmEngine mine_serial_engine(data, space);
  const MiningResult mine_serial = MineTrajPatterns(mine_serial_engine, mopt);
  struct MineRow {
    int requested;
    bool oversubscribed;
    int used;
    double seconds;
    bool identical;
  };
  std::vector<MineRow> mine_rows;
  for (const tb::ThreadSweepRow& sw : sweep) {
    mopt.num_threads = sw.threads;
    NmEngine engine(data, space);
    const MiningResult run = MineTrajPatterns(engine, mopt);
    bool identical = mine_serial.patterns.size() == run.patterns.size();
    for (size_t i = 0; identical && i < run.patterns.size(); ++i) {
      identical =
          mine_serial.patterns[i].pattern == run.patterns[i].pattern &&
          std::memcmp(&mine_serial.patterns[i].nm, &run.patterns[i].nm,
                      sizeof(double)) == 0;
    }
    mine_rows.push_back({sw.threads, sw.oversubscribed,
                         run.stats.threads_used, run.stats.seconds,
                         identical});
  }
  std::printf("end-to-end mine: serial reference %.4f s\n",
              mine_serial.stats.seconds);
  Table mine_table(
      {"requested", "used", "mine (s)", "speedup", "top-k identical"});
  for (const MineRow& r : mine_rows) {
    mine_table.AddRow({std::to_string(r.requested), std::to_string(r.used),
                       Table::Num(r.seconds),
                       Table::Num(mine_serial.stats.seconds / r.seconds),
                       r.identical ? "yes" : "NO"});
  }
  mine_table.Print();

  // ---- JSON summary.
  tb::JsonWriter w;
  w.BeginObject();
  w.Key("workload").BeginObject();
  w.Key("trajectories").Int(cfg.num_trajectories);
  w.Key("avg_length").Int(cfg.avg_length);
  w.Key("grid_cells").Int(cfg.grid_side * cfg.grid_side);
  w.Key("candidates").UInt(candidates.size());
  w.EndObject();
  w.Key("hardware_threads").Int(hardware_threads);
  if (!hw_warning.empty()) w.Key("hardware_warning").Str(hw_warning);
  w.Key("simd").Str(trajpattern::simd::ActiveLevelName());
  w.Key("batch_1t_seconds").Double(row_1t.seconds);
  const double warmup_1t = row_1t.stats.warmup_seconds;
  w.Key("batch").BeginArray();
  for (const Row& r : rows) {
    w.BeginObject();
    w.Key("threads").Int(r.threads);
    w.Key("oversubscribed").Bool(r.oversubscribed);
    w.Key("seconds").Double(r.seconds);
    w.Key("warmup_seconds").Double(r.stats.warmup_seconds);
    w.Key("scoring_seconds").Double(r.stats.scoring_seconds);
    w.Key("speedup").Double(row_1t.seconds / r.seconds, 3);
    w.Key("warmup_speedup")
        .Double(r.stats.warmup_seconds > 0.0
                    ? warmup_1t / r.stats.warmup_seconds
                    : 0.0,
                3);
    w.Key("cells_warmed").UInt(r.stats.cells_warmed);
    w.Key("cells_hit").UInt(r.stats.cells_hit);
    w.Key("identical").Bool(r.identical);
    w.Key("rebatch").BeginObject();
    w.Key("seconds").Double(r.rebatch_seconds);
    w.Key("warmup_seconds").Double(r.rebatch_stats.warmup_seconds);
    w.Key("cells_warmed").UInt(r.rebatch_stats.cells_warmed);
    w.Key("cells_hit").UInt(r.rebatch_stats.cells_hit);
    w.Key("identical").Bool(r.rebatch_identical);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("mine").BeginObject();
  w.Key("serial_seconds").Double(mine_serial.stats.seconds);
  w.Key("rows").BeginArray();
  for (const MineRow& r : mine_rows) {
    w.BeginObject();
    w.Key("threads_requested").Int(r.requested);
    w.Key("oversubscribed").Bool(r.oversubscribed);
    w.Key("threads_used").Int(r.used);
    w.Key("seconds").Double(r.seconds);
    w.Key("speedup").Double(mine_serial.stats.seconds / r.seconds, 3);
    w.Key("identical").Bool(r.identical);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  tb::StampMetrics(&w);
  tb::StampObsArtifacts(&w, obs_opts);
  w.EndObject();
  if (!w.WriteFile(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());

  const bool obs_ok = trajpattern::FlushObservability(obs_opts);
  bool all_identical = true;
  for (const Row& r : rows) {
    all_identical = all_identical && r.identical && r.rebatch_identical &&
                    r.rebatch_stats.cells_warmed == 0;
  }
  for (const MineRow& r : mine_rows) {
    all_identical = all_identical && r.identical;
  }
  return (all_identical && obs_ok) ? 0 : 1;
}

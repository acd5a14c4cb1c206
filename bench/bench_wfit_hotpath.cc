// The WFIT hot path end to end: chooseCands (statement-wide IBG, stats
// refresh, topIndices, choosePartition) plus the per-part WFA step, at full
// candidate scale (idxCnt 40, stateCnt 500) on the paper's benchmark trace.
//
// Reported series (merged into BENCH_service.json):
//
//   wfit_auto_stmts_per_min       — single-threaded WFIT-auto throughput on
//                                   the benchmark trace; THE number to
//                                   compare across PRs (PR 2 baseline:
//                                   ~9.4k/min in the same container);
//   ibg_build_us                  — mean statement-wide IBG build latency
//                                   at selector scale;
//   tracing_overhead_pct          — median over alternating tracing
//                                   off/on replay pairs.
//
// One untimed replay runs first, so allocator growth and cold caches do
// not land on whichever series is timed first.
//
// Determinism gate (process exits nonzero on violation): trajectories
// bit-for-bit identical with tracing off and on. The WFIT-auto
// trajectory's FNV-1a digest is printed, so two builds compare with a
// one-line diff.
//
// Set WFIT_BENCH_FAST=1 for a scaled-down smoke run.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/wfit.h"
#include "harness/reporting.h"
#include "obs/trace.h"
#include "optimizer/index_extractor.h"

namespace wfit {
namespace {

using Clock = std::chrono::steady_clock;

struct RunStats {
  double seconds = 0.0;
  double stmts_per_minute = 0.0;
  uint64_t what_if_calls = 0;
  std::vector<IndexSet> trajectory;
};

/// Replays the workload with deterministic interleaved feedback (a fixed
/// cadence, so the stmts/min series is comparable across PRs).
RunStats Replay(Tuner* tuner, const Workload& w,
                const WhatIfOptimizer& optimizer) {
  RunStats stats;
  stats.trajectory.reserve(w.size());
  uint64_t calls_before = optimizer.num_calls();
  Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < w.size(); ++i) {
    tuner->AnalyzeQuery(w[i]);
    if (i > 0 && i % 150 == 0) {
      IndexSet rec = tuner->Recommendation();
      if (!rec.empty()) {
        tuner->Feedback(IndexSet{}, IndexSet{*rec.begin()});
      }
    }
    stats.trajectory.push_back(tuner->Recommendation());
  }
  stats.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  stats.stmts_per_minute =
      60.0 * static_cast<double>(w.size()) / stats.seconds;
  stats.what_if_calls = optimizer.num_calls() - calls_before;
  return stats;
}

bool Check(bool ok, const char* what) {
  if (!ok) std::cout << "DETERMINISM VIOLATION: " << what << "\n";
  return ok;
}

/// FNV-1a over the trajectory: each recommendation's ids (little-endian
/// 32-bit) followed by a 0xff terminator byte, so two builds' trajectories
/// compare with a one-line diff.
uint64_t TrajectoryDigest(const std::vector<IndexSet>& trajectory) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto byte = [&h](uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  for (const IndexSet& rec : trajectory) {
    for (IndexId id : rec) {
      for (int shift = 0; shift < 32; shift += 8) {
        byte(static_cast<uint8_t>(id >> shift));
      }
    }
    byte(0xff);
  }
  return h;
}

bool SameTrajectory(const std::vector<IndexSet>& a,
                    const std::vector<IndexSet>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace
}  // namespace wfit

int main() {
  using namespace wfit;
  const bool fast = std::getenv("WFIT_BENCH_FAST") != nullptr;
  bench::BenchEnv env;
  const Workload& workload = env.workload();
  bool ok = true;
  std::vector<std::pair<std::string, double>> json;

  std::cout << "WFIT hot path, " << workload.size()
            << " statements (benchmark trace)\n\n";

  {
    Wfit warmup(&env.pool(), &env.optimizer(), IndexSet{}, WfitOptions{});
    (void)Replay(&warmup, workload, env.optimizer());
  }

  // --- WFIT auto on the benchmark trace --------------------------------
  {
    WfitOptions options;  // paper defaults: idxCnt 40, stateCnt 500
    Wfit tuner(&env.pool(), &env.optimizer(), IndexSet{}, options);
    RunStats run = Replay(&tuner, workload, env.optimizer());
    std::cout << "WFIT auto (idxCnt " << options.candidates.idx_cnt
              << ", stateCnt " << options.candidates.state_cnt << "): "
              << std::fixed << std::setprecision(2) << run.seconds << " s, "
              << static_cast<uint64_t>(run.stmts_per_minute)
              << " stmts/min, " << run.what_if_calls << " what-if calls\n";
    json.emplace_back("wfit_auto_stmts_per_min", run.stmts_per_minute);
    std::cout << "trajectory digest (FNV-1a, " << run.trajectory.size()
              << " recommendations): " << std::hex << std::setw(16)
              << std::setfill('0') << TrajectoryDigest(run.trajectory)
              << std::dec << std::setfill(' ') << "\n";
  }

  // --- Statement-wide IBG build latency at selector scale ---------------
  {
    ExtractorOptions xopts;
    xopts.max_candidates_per_statement = 24;
    std::vector<IndexId> cands;
    // The first query that yields a wide candidate slate.
    const Statement* q = nullptr;
    for (const Statement& stmt : workload) {
      std::vector<IndexId> extracted = ExtractIndices(stmt, &env.pool(), xopts);
      if (extracted.size() >= 8 &&
          (q == nullptr || extracted.size() > cands.size())) {
        q = &stmt;
        cands = std::move(extracted);
      }
      if (cands.size() >= 12) break;
    }
    WFIT_CHECK(q != nullptr,
               "benchmark trace yielded no statement with >= 8 candidates");
    const int reps = fast ? 50 : 300;
    Clock::time_point t0 = Clock::now();
    uint64_t nodes = 0;
    for (int i = 0; i < reps; ++i) {
      IndexBenefitGraph ibg(*q, env.optimizer(), cands, /*max_nodes=*/150);
      nodes += ibg.num_nodes();
    }
    double us = std::chrono::duration<double, std::micro>(Clock::now() - t0)
                    .count() /
                reps;
    std::cout << "\nIBG build (" << cands.size() << " candidates, "
              << nodes / static_cast<uint64_t>(reps)
              << " nodes): " << std::fixed << std::setprecision(1) << us
              << " us\n";
    json.emplace_back("ibg_build_us", us);
  }

  // --- Tracing overhead: the same single-threaded replay with runtime
  // tracing off vs on (spans recorded into the per-thread rings), as the
  // median of alternating pairs: each pair swaps which half runs first,
  // so host drift within a pair does not bias every pair the same way.
  // Gated at <= 5% by tools/check_bench.py; the trajectories must not
  // move.
  {
    constexpr int kPairs = 5;
    WfitOptions options;
    std::vector<double> overheads;
    uint64_t spans = 0;
    std::cout << "\ntracing overhead (off vs on, " << kPairs
              << " alternating pairs):\n";
    for (int pair = 0; pair < kPairs; ++pair) {
      RunStats runs[2];  // [0] tracing off, [1] tracing on
      for (int k = 0; k < 2; ++k) {
        const int traced = pair % 2 == 0 ? k : 1 - k;
        obs::SetTracingEnabled(traced == 1);
        Wfit tuner(&env.pool(), &env.optimizer(), IndexSet{}, options);
        runs[traced] = Replay(&tuner, workload, env.optimizer());
        obs::SetTracingEnabled(false);
      }
      spans += obs::CollectTraceCounters().recorded;
      obs::ClearTraceForTest();
      ok &= Check(SameTrajectory(runs[0].trajectory, runs[1].trajectory),
                  "tracing-enabled trajectory mismatch");
      const double off = runs[0].seconds;
      const double pct =
          off > 0.0 ? (runs[1].seconds - off) / off * 100.0 : 0.0;
      overheads.push_back(pct);
      std::cout << "  pair " << pair << ": off " << std::fixed
                << std::setprecision(2) << off << "s vs on "
                << runs[1].seconds << "s (" << std::showpos << pct << "%"
                << std::noshowpos << ")\n";
    }
    std::sort(overheads.begin(), overheads.end());
    const double overhead_pct = overheads[overheads.size() / 2];
    std::cout << "tracing overhead: median " << std::showpos << overhead_pct
              << "%" << std::noshowpos << ", " << spans
              << " spans recorded\n";
    json.emplace_back("tracing_overhead_pct", overhead_pct);
  }

  json.emplace_back("wfit_hotpath_trajectories_identical", ok ? 1.0 : 0.0);
  json.emplace_back("wfit_hotpath_fast_mode", fast ? 1.0 : 0.0);
  harness::UpdateBenchJson("BENCH_service.json", json);
  std::cout << "\ntrajectory determinism (tracing off/on): "
            << (ok ? "yes" : "NO") << "\nwrote BENCH_service.json\n";
  return ok ? 0 : 1;
}

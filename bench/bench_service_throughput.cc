// Online tuning service throughput: sustained ingest rate (statements per
// minute) and snapshot-read latency under concurrent producers, with the
// queue bound enforced throughout. The service runs as it is deployed: one
// tenant behind a TenantRouter with one drain thread. Two configurations
// are measured:
//
//   pipeline-only  — a no-op tuner isolates the queue + drain + snapshot
//                    machinery (the service's intrinsic ceiling);
//   WFIT           — end-to-end analysis on the benchmark workload.
//
// Headline numbers (sustained stmts/min, what-if cache hit rate) are merged
// into BENCH_service.json for the perf trajectory. Exits 1 when a run
// analyzed fewer statements than were submitted or its queue outgrew its
// capacity.
// Set WFIT_BENCH_FAST=1 for a scaled-down smoke run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/wfit.h"
#include "harness/reporting.h"
#include "service/tenant_router.h"

namespace wfit {
namespace {

using Clock = std::chrono::steady_clock;

/// Isolates the service machinery: analysis is free, so the measured rate
/// is the ingestion pipeline's own ceiling.
class NullTuner : public Tuner {
 public:
  void AnalyzeQuery(const Statement& q) override { (void)q; }
  IndexSet Recommendation() const override { return IndexSet{}; }
  std::string name() const override { return "null"; }
};

struct RunResult {
  double wall_seconds = 0.0;
  double statements_per_minute = 0.0;
  std::vector<double> read_latency_us;  // sorted
  service::MetricsSnapshot metrics;
};

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t i = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[i];
}

constexpr char kTenant[] = "bench";

/// Streams `total` statements (the workload, cycled) from `producers`
/// threads into a one-tenant router while one reader hammers
/// Recommendation().
RunResult RunService(std::unique_ptr<Tuner> tuner, const Workload& workload,
                     size_t total, int producers, size_t queue_capacity) {
  service::TenantRouterOptions options;
  options.shard.queue_capacity = queue_capacity;
  options.shard.max_batch = 32;
  options.drain_threads = 1;
  // The factory runs once: the router admits the tenant on first touch
  // and never evicts it (no checkpoint root).
  service::TenantRouter router(
      [&tuner](const std::string&) {
        return service::TenantTuner{std::move(tuner), nullptr};
      },
      options);
  router.Start();

  std::atomic<bool> done{false};
  RunResult result;
  std::thread reader([&] {
    // Sample continuously; cap retained samples to bound memory.
    while (!done.load(std::memory_order_relaxed)) {
      Clock::time_point t0 = Clock::now();
      auto snap = router.Recommendation(kTenant);
      double us = std::chrono::duration<double, std::micro>(Clock::now() - t0)
                      .count();
      if (snap != nullptr && result.read_latency_us.size() < 2000000) {
        result.read_latency_us.push_back(us);
      }
      std::this_thread::yield();
    }
  });

  Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      // Each producer streams its strided share of the cycled workload.
      for (size_t i = p; i < total; i += producers) {
        router.Submit(kTenant, workload[i % workload.size()]);
      }
    });
  }
  for (auto& t : threads) t.join();
  router.Shutdown();
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  done.store(true);
  reader.join();

  result.statements_per_minute =
      60.0 * static_cast<double>(total) / result.wall_seconds;
  result.metrics = router.Metrics().aggregate;
  std::sort(result.read_latency_us.begin(), result.read_latency_us.end());
  return result;
}

/// Prints the run and returns whether it passed its checks: every
/// submitted statement analyzed, and the queue within its bound.
bool Report(const std::string& title, const RunResult& r, size_t total) {
  wfit::harness::PrintServiceMetrics(std::cout, title, r.metrics);
  std::cout << "  wall time            " << r.wall_seconds << " s\n"
            << "  sustained ingest     "
            << static_cast<uint64_t>(r.statements_per_minute)
            << " statements/min\n"
            << "  snapshot reads       " << r.read_latency_us.size()
            << "  (p50 " << Percentile(r.read_latency_us, 0.5) << " us, p99 "
            << Percentile(r.read_latency_us, 0.99) << " us, max "
            << (r.read_latency_us.empty() ? 0.0 : r.read_latency_us.back())
            << " us)\n";
  bool bounded = r.metrics.queue_high_water <= r.metrics.queue_capacity;
  bool fast_enough = r.statements_per_minute >= 100000.0;
  std::cout << "  queue bounded        " << (bounded ? "yes" : "NO") << "\n"
            << "  >=100k stmts/min     " << (fast_enough ? "yes" : "NO")
            << "\n";
  const bool complete = r.metrics.statements_analyzed == total;
  if (!complete) {
    std::cout << "  ERROR: analyzed " << r.metrics.statements_analyzed
              << " != submitted " << total << "\n";
  }
  return bounded && complete;
}

}  // namespace
}  // namespace wfit

int main() {
  using namespace wfit;
  bool fast = std::getenv("WFIT_BENCH_FAST") != nullptr;
  bench::BenchEnv env;
  const Workload& workload = env.workload();
  const int producers = 4;

  std::vector<std::pair<std::string, double>> json;
  bool ok = true;

  {
    size_t total = fast ? 50000 : 400000;
    auto r = RunService(std::make_unique<NullTuner>(), workload, total,
                        producers, /*queue_capacity=*/4096);
    ok &= Report("service pipeline only (null tuner), " +
                     std::to_string(total) + " statements, " +
                     std::to_string(producers) + " producers",
                 r, total);
    json.emplace_back("service_pipeline_stmts_per_min",
                      r.statements_per_minute);
  }

  {
    size_t total = fast ? 2000 : 8000;
    // Lean candidate budget: the service targets sustained ingest, so the
    // tuner runs with a small monitored set (cf. WFIT-100 in the paper).
    WfitOptions options;
    options.candidates.idx_cnt = 8;
    options.candidates.state_cnt = 100;
    options.candidates.hist_size = 50;
    options.candidates.ibg_cap = 12;
    options.candidates.ibg_node_budget = 60;

    auto tuner = std::make_unique<Wfit>(&env.pool(), &env.optimizer(),
                                        IndexSet{}, options);
    auto wfit = RunService(std::move(tuner), workload, total, producers,
                           /*queue_capacity=*/1024);
    ok &= Report("WFIT end-to-end, " + std::to_string(total) +
                     " statements, " + std::to_string(producers) +
                     " producers",
                 wfit, total);

    json.emplace_back("service_wfit_serial_stmts_per_min",
                      wfit.statements_per_minute);
    json.emplace_back("what_if_cache_hit_rate",
                      wfit.metrics.what_if_cache_hit_rate());
    json.emplace_back("what_if_cache_hits",
                      static_cast<double>(wfit.metrics.what_if_cache_hits));
    json.emplace_back("what_if_cache_misses",
                      static_cast<double>(wfit.metrics.what_if_cache_misses));
  }

  harness::UpdateBenchJson("BENCH_service.json", json);
  std::cout << "wrote BENCH_service.json\n";
  if (!ok) {
    std::cout << "FAILED: a run lost statements or outgrew its queue\n";
    return 1;
  }
  return 0;
}

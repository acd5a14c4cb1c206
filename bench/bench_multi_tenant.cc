// Multi-tenant router throughput and fairness: N independent databases
// behind one TenantRouter (shared drain threads), each streaming
// the same volume of statements from its own producer. Measures
//
//   tenants_aggregate_stmts_per_min — fleet-wide sustained analysis rate;
//   tenants_fairness_min_max_ratio  — min/max per-tenant progress sampled
//                                     when the fleet is half done (1.0 =
//                                     perfectly fair round-robin);
//   tenants_single_stmts_per_min    — the same total volume through one
//                                     tenant, for the sharding overhead.
//
// Numbers merge into BENCH_service.json (the perf trajectory artifact) and
// the bench exits nonzero if fairness collapses (< 0.2) or any tenant
// starves. Set WFIT_BENCH_FAST=1 for a scaled-down smoke run.
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
#include "obs/stages.h"
#include "service/tenant_router.h"
#include "service/tuner_service.h"

namespace wfit {
namespace {

using Clock = std::chrono::steady_clock;

/// One tenant's private tuning environment over the shared read-only
/// benchmark catalog: its own pool, cost model and optimizer, so shards
/// are as independent as real per-database deployments.
struct TenantEnv {
  explicit TenantEnv(Catalog* catalog) {
    pool = std::make_unique<IndexPool>(catalog);
    model = std::make_unique<CostModel>(catalog, pool.get());
    optimizer = std::make_unique<WhatIfOptimizer>(model.get());
  }
  std::unique_ptr<IndexPool> pool;
  std::unique_ptr<CostModel> model;
  std::unique_ptr<WhatIfOptimizer> optimizer;
};

WfitOptions LeanOptions() {
  // The service-throughput candidate budget (cf. WFIT-100 in the paper):
  // sustained ingest with a small monitored set.
  WfitOptions options;
  options.candidates.idx_cnt = 8;
  options.candidates.state_cnt = 100;
  options.candidates.hist_size = 50;
  options.candidates.ibg_cap = 12;
  options.candidates.ibg_node_budget = 60;
  return options;
}

std::string TenantName(size_t t) { return "db-" + std::to_string(t); }

struct RunResult {
  double wall_seconds = 0.0;
  double aggregate_stmts_per_min = 0.0;
  double fairness_min_max_ratio = 1.0;
  service::RouterMetricsSnapshot metrics;
};

/// Streams `per_tenant` statements into each of `tenants` shards from one
/// producer per tenant; samples per-tenant progress at the halfway point
/// for the fairness spread.
RunResult RunRouter(Catalog* catalog, const Workload& workload,
                    size_t tenants, size_t per_tenant) {
  std::vector<std::unique_ptr<TenantEnv>> envs;
  for (size_t t = 0; t < tenants; ++t) {
    envs.push_back(std::make_unique<TenantEnv>(catalog));
  }
  service::TenantRouterOptions options;
  options.shard.queue_capacity = 512;
  options.shard.max_batch = 32;
  options.drain_threads = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  service::TenantRouter router(
      [&](const std::string& id) {
        size_t t = std::strtoull(id.substr(3).c_str(), nullptr, 10);
        service::TenantTuner made;
        made.tuner = std::make_unique<Wfit>(envs[t]->pool.get(),
                                            envs[t]->optimizer.get(),
                                            IndexSet{}, LeanOptions());
        return made;
      },
      options);
  router.Start();

  RunResult result;
  const uint64_t half_total = tenants * per_tenant / 2;
  std::atomic<bool> done{false};
  // Fairness probe: the min/max per-tenant analyzed count the moment the
  // fleet crosses 50% — a starved tenant drags the ratio toward 0.
  std::thread prober([&] {
    while (!done.load(std::memory_order_relaxed)) {
      uint64_t total = 0;
      std::vector<uint64_t> counts(tenants);
      for (size_t t = 0; t < tenants; ++t) {
        counts[t] = router.analyzed(TenantName(t));
        total += counts[t];
      }
      if (total >= half_total) {
        uint64_t lo = *std::min_element(counts.begin(), counts.end());
        uint64_t hi = *std::max_element(counts.begin(), counts.end());
        result.fairness_min_max_ratio =
            hi == 0 ? 1.0
                    : static_cast<double>(lo) / static_cast<double>(hi);
        return;
      }
      std::this_thread::yield();
    }
  });

  Clock::time_point start = Clock::now();
  std::vector<std::thread> producers;
  for (size_t t = 0; t < tenants; ++t) {
    producers.emplace_back([&, t] {
      for (size_t i = 0; i < per_tenant; ++i) {
        router.Submit(TenantName(t), workload[i % workload.size()]);
      }
    });
  }
  for (auto& p : producers) p.join();
  for (size_t t = 0; t < tenants; ++t) {
    router.WaitUntilAnalyzed(TenantName(t), per_tenant);
  }
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  done.store(true);
  prober.join();
  router.Shutdown();
  result.aggregate_stmts_per_min =
      60.0 * static_cast<double>(tenants * per_tenant) / result.wall_seconds;
  result.metrics = router.Metrics();
  return result;
}

/// QoS skew: one heavy tenant (DRR weight 4, 8x the volume) beside three
/// light tenants. The invariant under test: the flood must not push a
/// light tenant's queue-wait p99 past what weighted scheduling promises —
/// the light p99 is the gated number.
struct SkewResult {
  double light_p99_ms = 0.0;
  double heavy_p99_ms = 0.0;
  bool lights_complete = true;
};

SkewResult RunSkewed(Catalog* catalog, const Workload& workload,
                     size_t light_per_tenant) {
  constexpr size_t kTenants = 4;  // db-0 heavy, db-1..3 light
  const size_t heavy_volume = 8 * light_per_tenant;
  std::vector<std::unique_ptr<TenantEnv>> envs;
  for (size_t t = 0; t < kTenants; ++t) {
    envs.push_back(std::make_unique<TenantEnv>(catalog));
  }
  service::TenantRouterOptions options;
  options.shard.queue_capacity = 256;
  options.shard.max_batch = 16;
  options.drain_threads = 2;  // fewer drains than tenants: contention real
  options.tenant_qos[TenantName(0)] = service::TenantQos{.weight = 4.0};
  service::TenantRouter router(
      [&](const std::string& id) {
        size_t t = std::strtoull(id.substr(3).c_str(), nullptr, 10);
        service::TenantTuner made;
        made.tuner = std::make_unique<Wfit>(envs[t]->pool.get(),
                                            envs[t]->optimizer.get(),
                                            IndexSet{}, LeanOptions());
        return made;
      },
      options);
  router.Start();

  std::vector<std::thread> producers;
  producers.emplace_back([&] {
    for (size_t i = 0; i < heavy_volume; ++i) {
      router.Submit(TenantName(0), workload[i % workload.size()]);
    }
  });
  for (size_t t = 1; t < kTenants; ++t) {
    producers.emplace_back([&, t] {
      for (size_t i = 0; i < light_per_tenant; ++i) {
        router.Submit(TenantName(t), workload[i % workload.size()]);
      }
    });
  }
  for (auto& p : producers) p.join();
  router.WaitUntilAnalyzed(TenantName(0), heavy_volume);
  for (size_t t = 1; t < kTenants; ++t) {
    router.WaitUntilAnalyzed(TenantName(t), light_per_tenant);
  }
  router.Shutdown();

  SkewResult result;
  for (const service::TenantMetricsEntry& e : router.Metrics().tenants) {
    const double p99_ms =
        e.service.StageQuantileUpperUs(obs::Stage::kQueueWait, 0.99) / 1000.0;
    if (e.id == TenantName(0)) {
      result.heavy_p99_ms = p99_ms;
    } else {
      result.light_p99_ms = std::max(result.light_p99_ms, p99_ms);
      if (e.service.statements_analyzed != light_per_tenant) {
        result.lights_complete = false;
      }
    }
  }
  return result;
}

/// 10x spike into an overload-enabled shard, producers on 2-second
/// deadline submits: the server may shed (kBusy) but a producer call can
/// never block past its deadline. Recovery = seconds from the end of the
/// spike until the controller walks back to Normal under trickle load.
struct SpikeResult {
  double recovery_s = 0.0;
  double max_submit_block_s = 0.0;
  uint64_t ingress_shed = 0;
  uint64_t transitions = 0;
  bool recovered = false;
};

SpikeResult RunSpike(Catalog* catalog, const Workload& workload,
                     size_t spike_statements) {
  TenantEnv env(catalog);
  service::TenantRouterOptions options;
  options.shard.queue_capacity = 64;  // 10x spike overwhelms this
  options.shard.max_batch = 8;
  options.shard.overload.enabled = true;
  options.shard.overload.sample_floor = 0.25;
  options.drain_threads = 1;
  service::TenantRouter router(
      [&](const std::string&) {
        service::TenantTuner made;
        made.tuner = std::make_unique<Wfit>(env.pool.get(),
                                            env.optimizer.get(), IndexSet{},
                                            LeanOptions());
        return made;
      },
      options);
  router.Start();
  const std::string id = TenantName(0);

  SpikeResult result;
  auto deadline_submit = [&](const Statement& stmt) {
    const Clock::time_point begin = Clock::now();
    const service::PushAtResult r = router.SubmitWithDeadline(
        id, stmt, begin + std::chrono::seconds(2));
    const double blocked =
        std::chrono::duration<double>(Clock::now() - begin).count();
    result.max_submit_block_s =
        std::max(result.max_submit_block_s, blocked);
    if (r == service::PushAtResult::kWouldBlock) ++result.ingress_shed;
  };

  // The spike: 10x queue capacity as fast as the producer can push.
  for (size_t i = 0; i < spike_statements; ++i) {
    deadline_submit(workload[i % workload.size()]);
  }
  const Clock::time_point spike_end = Clock::now();

  // Trickle load while the backlog drains; the controller needs batches
  // flowing to observe the fill dropping and walk back to Normal.
  bool recovered = false;
  for (size_t i = 0; i < 20000; ++i) {
    if (router.Metrics().aggregate.overload_mode == 0 &&
        router.Metrics().aggregate.queue_depth == 0) {
      recovered = true;
      break;
    }
    deadline_submit(workload[i % workload.size()]);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  result.recovered = recovered;
  result.recovery_s =
      std::chrono::duration<double>(Clock::now() - spike_end).count();
  router.Shutdown();
  result.transitions = router.Metrics().aggregate.overload_transitions;
  return result;
}

/// The honesty control: with the controller armed but never tripped (rate
/// stays 1.0), the recommendation trajectory must be bit-identical to a
/// run with the controller compiled out of the decision path.
size_t RateOneDivergence(Catalog* catalog, const Workload& workload,
                         size_t statements) {
  std::vector<IndexSet> histories[2];
  for (int enabled = 0; enabled < 2; ++enabled) {
    TenantEnv env(catalog);
    service::TunerServiceOptions options;
    // Worst-case fill stays under 1/8 — far below the high watermark, so
    // the armed controller never leaves Normal and the rate stays 1.0.
    options.queue_capacity = 8 * statements;
    options.max_batch = 16;
    options.record_history = true;
    options.overload.enabled = enabled == 1;
    service::TunerService svc(
        std::make_unique<Wfit>(env.pool.get(), env.optimizer.get(),
                               IndexSet{}, LeanOptions()),
        options);
    svc.Start();
    for (size_t i = 0; i < statements; ++i) {
      svc.SubmitAt(i, workload[i % workload.size()]);
    }
    while (svc.ProcessBatch() > 0) {
    }
    svc.Shutdown();
    histories[enabled] = svc.History();
  }
  size_t divergence = 0;
  for (size_t i = 0; i < histories[0].size(); ++i) {
    if (i >= histories[1].size() || histories[0][i] != histories[1][i]) {
      ++divergence;
    }
  }
  return divergence;
}

}  // namespace
}  // namespace wfit

int main() {
  using namespace wfit;
  bool fast = std::getenv("WFIT_BENCH_FAST") != nullptr;
  bench::BenchEnv env;
  const size_t tenants = fast ? 4 : 8;
  const size_t per_tenant = fast ? 400 : 1500;

  RunResult multi =
      RunRouter(&env.catalog(), env.workload(), tenants, per_tenant);
  harness::PrintRouterMetrics(
      std::cout,
      std::to_string(tenants) + " tenants x " +
          std::to_string(per_tenant) + " statements",
      multi.metrics);
  std::cout << "  wall time            " << multi.wall_seconds << " s\n"
            << "  aggregate ingest     "
            << static_cast<uint64_t>(multi.aggregate_stmts_per_min)
            << " statements/min\n"
            << "  fairness (min/max)   " << multi.fairness_min_max_ratio
            << " at 50% fleet progress\n";

  // The same total volume through ONE shard: what sharding costs.
  RunResult single =
      RunRouter(&env.catalog(), env.workload(), 1, tenants * per_tenant);
  std::cout << "\nsingle tenant, same total volume:\n"
            << "  wall time            " << single.wall_seconds << " s\n"
            << "  sustained ingest     "
            << static_cast<uint64_t>(single.aggregate_stmts_per_min)
            << " statements/min\n";

  bool every_tenant_finished = true;
  for (const service::TenantMetricsEntry& t : multi.metrics.tenants) {
    if (t.service.statements_analyzed != per_tenant) {
      every_tenant_finished = false;
      std::cout << "  WARNING: " << t.id << " analyzed "
                << t.service.statements_analyzed << " != " << per_tenant
                << "\n";
    }
  }
  bool fair = multi.fairness_min_max_ratio >= 0.2;
  std::cout << "  all tenants complete " << (every_tenant_finished ? "yes" : "NO")
            << "\n  fairness >= 0.2      " << (fair ? "yes" : "NO") << "\n";

  // QoS skew: a weighted heavy flood beside protected light tenants.
  SkewResult skew =
      RunSkewed(&env.catalog(), env.workload(), fast ? 200 : 600);
  std::cout << "\nskewed load (heavy weight 4, 8x volume):\n"
            << "  light tenant p99     " << skew.light_p99_ms
            << " ms queue wait\n"
            << "  heavy tenant p99     " << skew.heavy_p99_ms
            << " ms queue wait\n"
            << "  lights complete      "
            << (skew.lights_complete ? "yes" : "NO") << "\n";

  // 10x spike into an overload-enabled shard with 2s deadline submits.
  SpikeResult spike =
      RunSpike(&env.catalog(), env.workload(), fast ? 640 : 1280);
  std::cout << "\noverload spike (10x queue capacity):\n"
            << "  recovery             " << spike.recovery_s << " s\n"
            << "  max submit block     " << spike.max_submit_block_s
            << " s\n"
            << "  ingress shed (kBusy) " << spike.ingress_shed << "\n"
            << "  controller epochs    " << spike.transitions << "\n"
            << "  recovered to Normal  " << (spike.recovered ? "yes" : "NO")
            << "\n";

  size_t divergence =
      RateOneDivergence(&env.catalog(), env.workload(), fast ? 120 : 300);
  std::cout << "  rate-1.0 divergence  " << divergence
            << " statements (must be 0)\n";

  bool producers_bounded = spike.max_submit_block_s < 2.5;
  bool honest = divergence == 0;

  harness::UpdateBenchJson(
      "BENCH_service.json",
      {
          {"tenants", static_cast<double>(tenants)},
          {"tenants_aggregate_stmts_per_min", multi.aggregate_stmts_per_min},
          {"tenants_fairness_min_max_ratio", multi.fairness_min_max_ratio},
          {"tenants_single_stmts_per_min", single.aggregate_stmts_per_min},
          {"qos_light_tenant_p99_ms", skew.light_p99_ms},
          {"overload_recovery_s", spike.recovery_s},
      });
  std::cout << "wrote BENCH_service.json\n";
  return (every_tenant_finished && fair && skew.lights_complete &&
          spike.recovered && producers_bounded && honest)
             ? 0
             : 1;
}

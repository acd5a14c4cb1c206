// Distributed control-plane benchmarks: the RPC stack's raw round-trip
// rate, aggregate tuning throughput of one node vs a two-node fleet
// (same tenants, same statements, routed over loopback TCP), and the
// wall-clock cost of a LIVE tenant migration — whose stitched trajectory
// is verified bit-for-bit against a dedicated single-router reference
// (the bench exits nonzero on divergence, so the perf artifact can never
// hide a correctness regression). Measures
//
//   net_rpc_round_trips_per_sec       — kPing round trips, one client;
//   cluster_single_node_stmts_per_min — T tenants through 1 node;
//   cluster_two_node_stmts_per_min    — same tenants split across 2;
//   cluster_scaleup_2node             — two-node / single-node ratio
//                                       (read on multi-core hardware;
//                                       a single-core host pins it ~1);
//   migration_handoff_ms              — evict + pack + ship + seed;
//   cluster_migration_trajectory_identical — 1.0 iff bit-identical;
//   failover_takeover_ms              — SIGKILL-equivalent crash of the
//                                       owner to the first successful
//                                       client RPC against the survivor
//                                       (lease expiry + adoption);
//   cluster_failover_trajectory_identical — 1.0 iff the survivor's
//                                       resumed trajectory matches an
//                                       undisturbed reference.
//
// Numbers merge into BENCH_service.json. WFIT_BENCH_FAST=1 scales the
// volume down for CI smoke runs.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/demo_env.h"
#include "cluster/membership.h"
#include "cluster/node.h"
#include "cluster/placement.h"
#include "harness/reporting.h"
#include "net/client.h"
#include "net/server.h"

namespace wfit {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using cluster::ClusterClient;
using cluster::ClusterConfig;
using cluster::DemoFleetEnv;
using cluster::TunerNode;

std::string TempRoot(const std::string& tag) {
  std::string dir = (fs::temp_directory_path() /
                     ("wfit_bench_cluster_" + tag + "_" +
                      std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  return dir;
}

/// Raw wire throughput: a trivial echo server, one blocking client,
/// sequential pings — the per-RPC floor under everything else here.
double MeasureRpcRoundTrips(size_t pings) {
  net::Server server([](const net::Request&) { return net::Response{}; },
                     [](const net::Request&) { return net::Response{}; },
                     [](net::MsgType) { return false; });
  if (!server.Start().ok()) return 0.0;
  net::Client client;
  if (!client.Connect("127.0.0.1", server.port()).ok()) return 0.0;
  net::Request ping;
  ping.type = net::MsgType::kPing;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < pings; ++i) {
    auto resp = client.Call(ping);
    if (!resp.ok()) return 0.0;
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  server.Shutdown();
  return static_cast<double>(pings) / secs;
}

/// An in-process fleet of `n` nodes (ids "n0".."nK") sharing one demo
/// environment, with tenants pinned round-robin via overrides so the
/// load split is deterministic regardless of what the hash would pick.
struct Fleet {
  std::shared_ptr<DemoFleetEnv> env;
  std::vector<std::unique_ptr<TunerNode>> nodes;
  ClusterConfig config;

  Fleet(size_t n, size_t tenants, size_t statements, const std::string& tag)
      : env(std::make_shared<DemoFleetEnv>(statements)) {
    ClusterConfig boot;
    boot.version = 1;
    for (size_t i = 0; i < n; ++i) {
      boot.nodes.push_back(
          {"n" + std::to_string(i), "127.0.0.1", 0});
    }
    boot.Normalize();
    for (size_t i = 0; i < n; ++i) {
      cluster::TunerNodeOptions options;
      options.node_id = "n" + std::to_string(i);
      options.config = boot;
      options.router.shard.queue_capacity = 64;
      options.router.shard.max_batch = 16;
      options.router.shard.record_history = true;
      options.router.shard.checkpoint_every_statements = 200;
      options.router.checkpoint_root =
          TempRoot(tag + "_n" + std::to_string(i));
      options.router.drain_threads = 2;
      options.router.repin = env->MakeRepinner();
      nodes.push_back(std::make_unique<TunerNode>(env->MakeTunerFactory(),
                                                  std::move(options)));
      if (!nodes.back()->Start().ok()) {
        std::cerr << "node start failed\n";
        std::exit(1);
      }
    }
    config.version = 2;
    for (size_t i = 0; i < n; ++i) {
      config.nodes.push_back({"n" + std::to_string(i), "127.0.0.1",
                              nodes[i]->port()});
    }
    for (size_t t = 0; t < tenants; ++t) {
      config.overrides[DemoFleetEnv::TenantName(t)] =
          "n" + std::to_string(t % n);
    }
    config.Normalize();
    for (auto& node : nodes) node->InstallConfig(config);
  }

  void Shutdown() {
    for (auto& node : nodes) node->Shutdown();
  }
};

/// Streams every tenant's full workload through the cluster client (one
/// producer per tenant) and waits until each shard analyzed everything.
/// Returns aggregate statements/min.
double RunTenants(Fleet& fleet, size_t tenants, std::atomic<bool>* failed) {
  const size_t statements = fleet.env->statements();
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> producers;
  for (size_t t = 0; t < tenants; ++t) {
    producers.emplace_back([&, t] {
      ClusterClient client(fleet.config);
      const std::string tenant = DemoFleetEnv::TenantName(t);
      const Workload& workload = fleet.env->Env(t).workload;
      for (size_t seq = 0; seq < workload.size(); ++seq) {
        net::Request req;
        req.type = net::MsgType::kSubmitAt;
        req.seq = seq;
        req.has_statement = true;
        req.statement = workload[seq];
        auto resp = client.Call(tenant, std::move(req));
        if (!resp.ok() || resp->kind != net::RespKind::kOk) {
          failed->store(true);
          return;
        }
      }
      while (!failed->load()) {
        net::Request probe;
        probe.type = net::MsgType::kGetAnalyzed;
        auto resp = client.Call(tenant, probe);
        if (resp.ok() && resp->kind == net::RespKind::kOk &&
            resp->analyzed >= workload.size()) {
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  for (auto& p : producers) p.join();
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  return 60.0 * static_cast<double>(tenants * statements) / secs;
}

struct MigrationResult {
  double handoff_ms = 0.0;
  bool identical = false;
};

/// One tenant, two nodes, a DBA vote pinned in the future, a live
/// handoff mid-workload — then the stitched source+target trajectory is
/// compared against a dedicated never-migrated router.
MigrationResult MeasureMigration(size_t statements, uint64_t migrate_after) {
  MigrationResult result;
  const std::string tenant = DemoFleetEnv::TenantName(0);

  // Reference: one router, same env parameters, full workload.
  std::vector<IndexSet> reference;
  {
    DemoFleetEnv env(statements);
    service::TenantRouterOptions options;
    options.shard.queue_capacity = 64;
    options.shard.max_batch = 16;
    options.shard.record_history = true;
    options.drain_threads = 2;
    options.repin = env.MakeRepinner();
    service::TenantRouter router(env.MakeTunerFactory(), options);
    router.Start();
    for (const service::PinnedVote& vote : env.PinnedVotesFor(0, 0)) {
      router.FeedbackAfter(tenant, vote.after_seq, vote.f_plus,
                           vote.f_minus);
    }
    const Workload& workload = env.Env(0).workload;
    for (size_t seq = 0; seq < workload.size(); ++seq) {
      router.SubmitAt(tenant, seq, workload[seq]);
    }
    router.WaitUntilAnalyzed(tenant, statements);
    reference = router.History(tenant);
    router.Shutdown();
  }

  Fleet fleet(2, /*tenants=*/1, statements, "mig");
  std::atomic<bool> failed{false};
  std::thread producer([&] {
    ClusterClient client(fleet.config);
    for (const service::PinnedVote& vote :
         fleet.env->PinnedVotesFor(0, 0)) {
      net::Request req;
      req.type = net::MsgType::kFeedbackAfter;
      req.seq = vote.after_seq;
      req.f_plus = vote.f_plus;
      req.f_minus = vote.f_minus;
      auto resp = client.Call(tenant, std::move(req));
      if (!resp.ok() || resp->kind != net::RespKind::kOk) {
        failed.store(true);
        return;
      }
    }
    const Workload& workload = fleet.env->Env(0).workload;
    for (size_t seq = 0; seq < workload.size() && !failed.load(); ++seq) {
      net::Request req;
      req.type = net::MsgType::kSubmitAt;
      req.seq = seq;
      req.has_statement = true;
      req.statement = workload[seq];
      auto resp = client.Call(tenant, std::move(req));
      if (!resp.ok() || resp->kind != net::RespKind::kOk) {
        failed.store(true);
        return;
      }
    }
    while (!failed.load()) {
      net::Request probe;
      probe.type = net::MsgType::kGetAnalyzed;
      auto resp = client.Call(tenant, probe);
      if (resp.ok() && resp->kind == net::RespKind::kOk &&
          resp->analyzed >= fleet.env->statements()) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  ClusterClient admin(fleet.config);
  while (!failed.load()) {
    net::Request probe;
    probe.type = net::MsgType::kGetAnalyzed;
    auto resp = admin.Call(tenant, probe);
    if (resp.ok() && resp->kind == net::RespKind::kOk &&
        resp->analyzed >= migrate_after) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // The tenant is pinned to n0 by the fleet's overrides; hand it to n1.
  if (!failed.load()) {
    net::Request migrate;
    migrate.type = net::MsgType::kMigrate;
    migrate.target_node = "n1";
    auto resp = admin.Call(tenant, std::move(migrate));
    if (resp.ok() && resp->kind == net::RespKind::kOk) {
      result.handoff_ms = static_cast<double>(resp->count);
    } else {
      failed.store(true);
    }
  }
  producer.join();

  if (!failed.load()) {
    std::vector<std::optional<IndexSet>> slots(statements);
    for (auto& node : fleet.nodes) {
      const uint64_t start = node->router().HistoryStart(tenant);
      const std::vector<IndexSet> part = node->router().History(tenant);
      for (size_t i = 0; i < part.size(); ++i) {
        if (start + i < slots.size()) slots[start + i] = part[i];
      }
    }
    result.identical = reference.size() == statements;
    for (size_t seq = 0; seq < statements && result.identical; ++seq) {
      result.identical =
          slots[seq].has_value() && *slots[seq] == reference[seq];
      if (!result.identical) {
        std::cerr << "  DIVERGENCE at statement " << seq << "\n";
      }
    }
  }
  fleet.Shutdown();
  return result;
}

struct FailoverResult {
  double takeover_ms = 0.0;
  bool identical = false;
};

/// One tenant pinned to a node that gets crashed (SIGKILL semantics: no
/// parting checkpoint, journal only) mid-workload in a membership-enabled
/// two-node fleet. Measures the gap from the crash to the first client
/// RPC the survivor answers for that tenant — lease expiry, checkpoint
/// recovery, and config fan-out included — and verifies the survivor's
/// resumed trajectory bit-for-bit against an undisturbed reference.
FailoverResult MeasureFailover(size_t statements, uint64_t kill_after) {
  FailoverResult result;
  const std::string tenant = DemoFleetEnv::TenantName(0);

  service::TenantRouterOptions router_options;
  router_options.shard.queue_capacity = 32;
  router_options.shard.max_batch = 8;
  router_options.shard.record_history = true;
  router_options.shard.checkpoint_every_statements = 100;
  // Crash realism: no parting checkpoint, so Shutdown() leaves only
  // journaled state behind, as a SIGKILL would.
  router_options.shard.checkpoint_on_shutdown = false;
  router_options.drain_threads = 1;

  // Reference: one router, never disturbed, votes registered up front.
  std::vector<IndexSet> reference;
  {
    DemoFleetEnv env(statements);
    auto options = router_options;
    options.repin = env.MakeRepinner();
    service::TenantRouter router(env.MakeTunerFactory(), options);
    router.Start();
    for (const service::PinnedVote& vote : env.PinnedVotesFor(0, 0)) {
      router.FeedbackAfter(tenant, vote.after_seq, vote.f_plus,
                           vote.f_minus);
    }
    const Workload& workload = env.Env(0).workload;
    for (size_t seq = 0; seq < workload.size(); ++seq) {
      router.SubmitAt(tenant, seq, workload[seq]);
    }
    router.WaitUntilAnalyzed(tenant, statements);
    reference = router.History(tenant);
    router.Shutdown();
  }

  // A two-node fleet sharing one checkpoint root, with the tenant
  // pinned to "a" (the victim) and aggressive failure-detection knobs
  // so the bench measures takeover, not lease padding.
  auto env = std::make_shared<DemoFleetEnv>(statements);
  const std::string fleet_root = TempRoot("failover");
  cluster::MembershipOptions membership;
  membership.heartbeat_interval_ms = 20;
  membership.suspect_after_misses = 2;
  membership.lease_ms = 250;
  membership.rpc_timeout_ms = 100;

  ClusterConfig boot;
  boot.version = 1;
  boot.nodes.push_back({"a", "127.0.0.1", 0});
  boot.nodes.push_back({"b", "127.0.0.1", 0});
  boot.Normalize();
  std::vector<std::unique_ptr<TunerNode>> nodes;
  for (const std::string& id : {std::string("a"), std::string("b")}) {
    cluster::TunerNodeOptions options;
    options.node_id = id;
    options.config = boot;
    options.router = router_options;
    options.router.repin = env->MakeRepinner();
    options.fleet_root = fleet_root;
    options.enable_membership = true;
    options.membership = membership;
    nodes.push_back(std::make_unique<TunerNode>(env->MakeTunerFactory(),
                                                std::move(options)));
    if (!nodes.back()->Start().ok()) {
      std::cerr << "failover bench: node start failed\n";
      return result;
    }
  }
  ClusterConfig config;
  config.version = 2;
  for (auto& node : nodes) {
    config.nodes.push_back({node->node_id(), "127.0.0.1", node->port()});
  }
  config.overrides[tenant] = "a";
  config.Normalize();
  for (auto& node : nodes) node->InstallConfig(config);

  // Crash-tolerant producer: resubmits from the analyzed watermark when
  // progress stalls, so the statements that died in a's ingest queue are
  // replayed against the survivor.
  std::atomic<bool> replay_ok{false};
  std::thread producer([&] {
    cluster::ClusterClientOptions copts;
    copts.retry_deadline_ms = 3000;
    copts.jitter_seed = 42;
    ClusterClient client(config, copts);
    replay_ok.store(
        cluster::ReplayTenantWorkload(client, *env, 0, true, 180000));
  });

  TunerNode& a = *nodes[0];
  TunerNode& b = *nodes[1];
  while (a.router().analyzed(tenant) < kill_after) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  const Clock::time_point crash_at = Clock::now();
  a.Shutdown();
  // One client Call spanning the outage: its internal retry/re-aim loop
  // returns as soon as ANY node answers for the tenant again.
  double takeover = -1.0;
  {
    cluster::ClusterClientOptions copts;
    copts.retry_deadline_ms = 60000;
    copts.jitter_seed = 7;
    ClusterClient monitor(config, copts);
    net::Request probe;
    probe.type = net::MsgType::kGetAnalyzed;
    auto resp = monitor.Call(tenant, std::move(probe));
    if (resp.ok() && resp->kind == net::RespKind::kOk) {
      takeover = std::chrono::duration<double, std::milli>(Clock::now() -
                                                           crash_at)
                     .count();
    }
  }
  producer.join();

  if (takeover >= 0.0 && replay_ok.load()) {
    result.takeover_ms = takeover;
    const uint64_t start = b.router().HistoryStart(tenant);
    const std::vector<IndexSet> suffix = b.router().History(tenant);
    result.identical = reference.size() == statements &&
                       start + suffix.size() == statements;
    for (size_t i = 0; i < suffix.size() && result.identical; ++i) {
      result.identical = suffix[i] == reference[start + i];
      if (!result.identical) {
        std::cerr << "  FAILOVER DIVERGENCE at statement " << (start + i)
                  << "\n";
      }
    }
  } else {
    std::cerr << "failover bench: takeover=" << takeover
              << " replay_ok=" << replay_ok.load() << "\n";
  }
  for (auto& node : nodes) node->Shutdown();
  return result;
}

}  // namespace
}  // namespace wfit

int main() {
  using namespace wfit;
  const bool fast = std::getenv("WFIT_BENCH_FAST") != nullptr;
  const size_t pings = fast ? 2000 : 20000;
  const size_t tenants = fast ? 2 : 4;
  const size_t statements = fast ? 120 : 300;
  const size_t mig_statements = fast ? 160 : 300;
  const uint64_t migrate_after = fast ? 80 : 150;

  const double rpc_per_sec = MeasureRpcRoundTrips(pings);
  std::cout << "rpc round trips        "
            << static_cast<uint64_t>(rpc_per_sec) << " /s over loopback\n";

  std::atomic<bool> failed{false};
  double single = 0.0, two = 0.0;
  {
    Fleet fleet(1, tenants, statements, "one");
    single = RunTenants(fleet, tenants, &failed);
    fleet.Shutdown();
  }
  {
    Fleet fleet(2, tenants, statements, "two");
    two = RunTenants(fleet, tenants, &failed);
    fleet.Shutdown();
  }
  if (failed.load()) {
    std::cerr << "throughput phase failed\n";
    return 1;
  }
  const double scaleup = single > 0.0 ? two / single : 0.0;
  std::cout << "single node            " << static_cast<uint64_t>(single)
            << " statements/min (" << tenants << " tenants x "
            << statements << ")\n"
            << "two nodes              " << static_cast<uint64_t>(two)
            << " statements/min\n"
            << "scale-up               " << scaleup
            << "x (meaningful on multi-core hosts only)\n";

  MigrationResult migration =
      MeasureMigration(mig_statements, migrate_after);
  std::cout << "migration handoff      " << migration.handoff_ms << " ms\n"
            << "trajectory identical   "
            << (migration.identical ? "yes" : "NO") << "\n";

  const size_t fo_statements = fast ? 160 : 300;
  const uint64_t kill_after = fast ? 60 : 150;
  FailoverResult failover = MeasureFailover(fo_statements, kill_after);
  std::cout << "failover takeover      " << failover.takeover_ms << " ms\n"
            << "failover identical     "
            << (failover.identical ? "yes" : "NO") << "\n";

  harness::UpdateBenchJson(
      "BENCH_service.json",
      {
          {"net_rpc_round_trips_per_sec", rpc_per_sec},
          {"cluster_single_node_stmts_per_min", single},
          {"cluster_two_node_stmts_per_min", two},
          {"cluster_scaleup_2node", scaleup},
          {"migration_handoff_ms", migration.handoff_ms},
          {"cluster_migration_trajectory_identical",
           migration.identical ? 1.0 : 0.0},
          {"failover_takeover_ms", failover.takeover_ms},
          {"cluster_failover_trajectory_identical",
           failover.identical ? 1.0 : 0.0},
      });
  std::cout << "wrote BENCH_service.json\n";
  return (migration.identical && failover.identical) ? 0 : 1;
}

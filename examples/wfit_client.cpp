// Fleet client for wfit_server nodes: replays the shared demo workload
// for N tenants over the wire (exactly-once kSubmitAt with redirect and
// backpressure handling), registers the deterministic DBA vote schedule
// up front, optionally triggers a LIVE tenant migration mid-workload,
// then stitches each tenant's recommendation trajectory back together
// from per-node kGetHistory segments and verifies it bit-for-bit against
// a reference file produced by `tuning_service_demo --tenants=N`.
// Indented lines continue the command above them:
//
//   wfit_client --nodes=a=127.0.0.1:7601,b=127.0.0.1:7602 --tenants=2
//       --statements=260 --migrate=tenant-0:120
//       --trajectory_out=got --reference=ref [--shutdown_nodes]
//
// Producers are crash-tolerant: when a node dies mid-workload they
// rewind to the analyzed watermark and resubmit (exactly-once dedup
// absorbs the overlap), so a SIGKILLed fleet node just looks like a
// stall. With --allow_gap, trajectory verification accepts a missing
// prefix (history that lived only on a killed node) and instead verifies
// the longest contiguous suffix bit-for-bit against the reference —
// which is exactly the failover guarantee.
//
// Exit codes: 0 consistent, 1 infrastructure failure, 2 trajectory
// divergence (the demo's convention).
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/demo_env.h"
#include "cluster/placement.h"
#include "obs/trace_export.h"

namespace {

using namespace wfit;
using cluster::ClusterClient;
using cluster::DemoFleetEnv;

/// Pulls every reachable node's span dump (kDumpTrace), merges them into
/// one Chrome trace at `path`, and returns the number of distinct trace
/// ids whose spans appear on two or more nodes — the distributed-trace
/// stitching the CI smoke asserts on.
size_t DumpFleetTrace(ClusterClient& client,
                      const cluster::ClusterConfig& config,
                      const std::string& path) {
  std::vector<std::pair<std::string, std::vector<obs::Span>>> processes;
  std::map<uint64_t, std::set<std::string>> trace_nodes;
  size_t total = 0;
  for (const cluster::NodeInfo& n : config.nodes) {
    net::Request req;
    req.type = net::MsgType::kDumpTrace;
    auto resp = client.CallNode(n.id, std::move(req));
    if (!resp.ok() || resp->kind != net::RespKind::kOk) continue;
    std::vector<obs::Span> spans = obs::ParseSpanLines(resp->text);
    for (const obs::Span& s : spans) {
      if (s.trace_id != 0) trace_nodes[s.trace_id].insert(n.id);
    }
    total += spans.size();
    processes.emplace_back("node " + n.id, std::move(spans));
  }
  size_t cross_node = 0;
  for (const auto& [trace, nodes] : trace_nodes) {
    if (nodes.size() >= 2) ++cross_node;
  }
  std::ofstream out(path, std::ios::trunc);
  if (out) out << obs::ChromeTraceJsonMulti(processes);
  std::cout << "[client] merged trace: " << total << " spans from "
            << processes.size() << " node(s), cross-node traces: "
            << cross_node << ", written to " << path << "\n"
            << std::flush;
  return cross_node;
}

struct Flags {
  std::string nodes;
  size_t tenants = 2;
  size_t statements = 600;
  std::string migrate;  // "TENANT:AFTER_N"
  std::string trajectory_out;
  std::string reference;
  bool shutdown_nodes = false;
  bool allow_gap = false;
  std::string trace_out;  // merge fleet kDumpTrace dumps into this file
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      std::string prefix = std::string("--") + name + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size()
                                       : nullptr;
    };
    if (const char* v = value("nodes")) {
      flags.nodes = v;
    } else if (const char* v = value("tenants")) {
      flags.tenants = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v = value("statements")) {
      flags.statements = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v = value("migrate")) {
      flags.migrate = v;
    } else if (const char* v = value("trajectory_out")) {
      flags.trajectory_out = v;
    } else if (const char* v = value("reference")) {
      flags.reference = v;
    } else if (arg == "--shutdown_nodes") {
      flags.shutdown_nodes = true;
    } else if (arg == "--allow_gap") {
      flags.allow_gap = true;
    } else if (const char* v = value("trace_out")) {
      flags.trace_out = v;
    } else {
      std::cerr << "unknown flag: " << arg << "\n"
                << "usage: wfit_client --nodes=SPEC [--tenants=N] "
                   "[--statements=N] [--migrate=TENANT:AFTER_N] "
                   "[--trajectory_out=F] [--reference=F] "
                   "[--shutdown_nodes] [--allow_gap] [--trace_out=F]\n";
      std::exit(64);
    }
  }
  if (flags.nodes.empty()) {
    std::cerr << "wfit_client: --nodes is required\n";
    std::exit(64);
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  auto parsed = cluster::ParseNodeList(flags.nodes);
  if (!parsed.ok()) {
    std::cerr << "bad --nodes: " << parsed.status().ToString() << "\n";
    return 1;
  }
  const cluster::ClusterConfig config = std::move(*parsed);
  DemoFleetEnv fleet(flags.statements);

  // Optional migration trigger: once the tenant has analyzed AFTER_N
  // statements, ask its current owner to hand it to the first node that
  // is NOT the owner — a true mid-workload live migration.
  std::string migrate_tenant;
  uint64_t migrate_after = 0;
  if (!flags.migrate.empty()) {
    const size_t colon = flags.migrate.rfind(':');
    if (colon == std::string::npos) {
      std::cerr << "bad --migrate (want TENANT:AFTER_N)\n";
      return 1;
    }
    migrate_tenant = flags.migrate.substr(0, colon);
    migrate_after =
        std::strtoull(flags.migrate.c_str() + colon + 1, nullptr, 10);
    if (config.nodes.size() < 2) {
      std::cerr << "--migrate needs at least 2 nodes\n";
      return 1;
    }
  }

  std::atomic<bool> failed{false};
  std::thread migrator;
  if (!migrate_tenant.empty()) {
    migrator = std::thread([&] {
      ClusterClient client(config);
      while (!failed.load()) {
        net::Request probe;
        probe.type = net::MsgType::kGetAnalyzed;
        auto resp = client.Call(migrate_tenant, probe);
        if (resp.ok() && resp->kind == net::RespKind::kOk &&
            resp->analyzed >= migrate_after) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (failed.load()) return;
      const cluster::NodeInfo* owner =
          cluster::OwnerOf(client.config(), migrate_tenant);
      std::string target;
      for (const cluster::NodeInfo& n : client.config().nodes) {
        if (owner == nullptr || n.id != owner->id) {
          target = n.id;
          break;
        }
      }
      net::Request req;
      req.type = net::MsgType::kMigrate;
      req.target_node = target;
      auto resp = client.Call(migrate_tenant, std::move(req));
      if (!resp.ok() || resp->kind != net::RespKind::kOk) {
        std::cerr << "[client] migration failed: "
                  << (resp.ok() ? resp->message : resp.status().ToString())
                  << "\n";
        failed.store(true);
        return;
      }
      std::cout << "[client] migrated " << migrate_tenant << " to "
                << target << " in " << resp->count << "ms\n"
                << std::flush;
    });
  }

  // One crash-tolerant producer per tenant: votes first, then the
  // exactly-once replay that rewinds to the analyzed watermark whenever
  // progress stalls (a killed node's in-queue statements were never
  // journaled — the survivor needs them again; dedup drops the rest).
  std::vector<std::thread> producers;
  for (size_t t = 0; t < flags.tenants; ++t) {
    producers.emplace_back([&, t] {
      cluster::ClusterClientOptions copts;
      copts.retry_deadline_ms = 5000;
      copts.jitter_seed = t + 1;
      ClusterClient client(config, copts);
      if (!cluster::ReplayTenantWorkload(client, fleet, t,
                                         /*register_votes=*/true,
                                         /*overall_deadline_ms=*/180000)) {
        std::cerr << "[client] replay failed for "
                  << DemoFleetEnv::TenantName(t) << "\n";
        failed.store(true);
      }
    });
  }
  for (auto& p : producers) p.join();
  if (migrator.joinable()) migrator.join();
  if (failed.load()) return 1;

  // Stitch each tenant's trajectory from per-node segments: a migrated
  // tenant's prefix stays on the source (retired history), the suffix
  // lives on the target; every segment self-describes its start.
  int worst = 0;
  ClusterClient admin(config);
  for (size_t t = 0; t < flags.tenants; ++t) {
    const std::string tenant = DemoFleetEnv::TenantName(t);
    std::vector<std::optional<IndexSet>> stitched(flags.statements);
    for (const cluster::NodeInfo& n : config.nodes) {
      net::Request req;
      req.type = net::MsgType::kGetHistory;
      req.tenant = tenant;
      auto resp = admin.CallNode(n.id, std::move(req));
      if (!resp.ok() || resp->kind != net::RespKind::kOk) continue;
      for (size_t i = 0; i < resp->history.size(); ++i) {
        const uint64_t seq = resp->history_start + i;
        if (seq < stitched.size()) stitched[seq] = resp->history[i];
      }
    }
    // The verified window: all of [0, statements) normally; with
    // --allow_gap, the longest contiguous suffix — the prefix may have
    // lived only in a killed node's history, but everything from the
    // adopted boundary on must still match the reference bit-for-bit.
    size_t start = stitched.size();
    while (start > 0 && stitched[start - 1].has_value()) --start;
    if (start == stitched.size()) {
      std::cerr << "[client] " << tenant << ": no node holds any of the "
                << "trajectory\n";
      worst = std::max(worst, 2);
      continue;
    }
    if (start > 0) {
      if (!flags.allow_gap) {
        std::cerr << "[client] " << tenant << ": no node holds statement "
                  << (start - 1) << " of the trajectory\n";
        worst = std::max(worst, 2);
        continue;
      }
      std::cout << "[client] " << tenant << ": statements [0, " << start
                << ") died with a killed node; verifying the surviving "
                << "suffix [" << start << ", " << stitched.size() << ")\n";
    }
    std::vector<IndexSet> history;
    for (size_t seq = start; seq < stitched.size(); ++seq) {
      history.push_back(std::move(*stitched[seq]));
    }
    std::string suffix = ".";
    suffix += std::to_string(t);
    int code = cluster::WriteAndVerifyTrajectory(
        history, /*history_start=*/start,
        flags.trajectory_out.empty() ? "" : flags.trajectory_out + suffix,
        flags.reference.empty() ? "" : flags.reference + suffix,
        tenant + " ");
    worst = std::max(worst, code);
  }

  if (!flags.trace_out.empty()) {
    DumpFleetTrace(admin, config, flags.trace_out);
  }

  if (flags.shutdown_nodes) {
    for (const cluster::NodeInfo& n : config.nodes) {
      net::Request req;
      req.type = net::MsgType::kShutdownNode;
      (void)admin.CallNode(n.id, std::move(req));
    }
    std::cout << "[client] requested shutdown of every node\n";
  }
  return worst;
}

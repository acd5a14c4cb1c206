// One node of a tuning fleet: a TunerNode (TenantRouter + RPC server +
// placement) serving the shared demo environment, so any number of these
// processes plus one wfit_client form a live multi-node deployment on
// one machine (indented lines continue the command above them):
//
//   wfit_server --node_id=a --listen=127.0.0.1:7601
//       --nodes=a=127.0.0.1:7601,b=127.0.0.1:7602 --checkpoint_root=na &
//   wfit_server --node_id=b --listen=127.0.0.1:7602
//       --nodes=a=127.0.0.1:7601,b=127.0.0.1:7602 --checkpoint_root=nb &
//   wfit_client --nodes=a=127.0.0.1:7601,b=127.0.0.1:7602 --tenants=2
//       --migrate=tenant-0:120 --trajectory_out=got --reference=ref
//
// SIGTERM/SIGINT (or a kShutdownNode RPC) shut the node down gracefully:
// every resident shard drains, applies due feedback, and seals journal +
// final checkpoint, so a restart recovers with zero journal replay.
//
// With --membership (plus --fleet_root=DIR shared by every node) the
// fleet self-heals: lease-based failure detection, automatic failover of
// a dead node's tenants from the shared checkpoint tree, and a config
// fan-out — the process logs "failover completed" when it adopts, which
// the CI chaos smoke greps for after SIGKILLing a peer.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "cluster/demo_env.h"
#include "cluster/membership.h"
#include "cluster/node.h"
#include "cluster/placement.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace {

using namespace wfit;

std::atomic<bool> g_stop{false};
std::atomic<bool> g_dump_trace{false};  // set by SIGUSR2

void DumpTrace(const std::string& node_id, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "[wfit_server] cannot write trace to " << path << "\n";
    return;
  }
  out << obs::ChromeTraceJson(obs::CollectSpans(), "node " + node_id);
  std::cout << "[wfit_server] node " << node_id << " trace written to "
            << path << "\n"
            << std::flush;
}

struct Flags {
  std::string node_id;
  std::string listen = "127.0.0.1:0";
  std::string nodes;
  std::string checkpoint_root;
  size_t statements = 600;
  // Self-healing fleet knobs.
  bool membership = false;
  std::string fleet_root;
  int heartbeat_ms = 50;
  int lease_ms = 600;
  // Observability knobs.
  bool trace = false;         // force tracing on (WFIT_TRACE also works)
  std::string trace_out;      // Chrome trace path; default trace_<id>.json
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
    if (const char* v = value("node_id")) {
      flags.node_id = v;
    } else if (const char* v = value("listen")) {
      flags.listen = v;
    } else if (const char* v = value("nodes")) {
      flags.nodes = v;
    } else if (const char* v = value("checkpoint_root")) {
      flags.checkpoint_root = v;
    } else if (const char* v = value("statements")) {
      flags.statements = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--membership") {
      flags.membership = true;
    } else if (arg == "--trace") {
      flags.trace = true;
    } else if (const char* v = value("trace_out")) {
      flags.trace_out = v;
    } else if (const char* v = value("fleet_root")) {
      flags.fleet_root = v;
    } else if (const char* v = value("heartbeat_ms")) {
      flags.heartbeat_ms = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (const char* v = value("lease_ms")) {
      flags.lease_ms = static_cast<int>(std::strtol(v, nullptr, 10));
    } else {
      std::cerr << "unknown flag: " << arg << "\n"
                << "usage: wfit_server --node_id=ID --nodes=SPEC "
                   "[--listen=HOST:PORT] [--checkpoint_root=DIR] "
                   "[--statements=N] [--membership --fleet_root=DIR "
                   "--heartbeat_ms=N --lease_ms=N] "
                   "[--trace] [--trace_out=PATH]\n";
      std::exit(64);
    }
  }
  if (flags.node_id.empty() || flags.nodes.empty()) {
    std::cerr << "wfit_server: --node_id and --nodes are required\n";
    std::exit(64);
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  struct sigaction sa {};
  sa.sa_handler = [](int) { g_stop.store(true); };
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  struct sigaction dump {};
  dump.sa_handler = [](int) { g_dump_trace.store(true); };
  ::sigaction(SIGUSR2, &dump, nullptr);

  obs::SetLogNodeId(flags.node_id);
  if (flags.trace) obs::SetTracingEnabled(true);
  const std::string trace_path = flags.trace_out.empty()
                                     ? "trace_" + flags.node_id + ".json"
                                     : flags.trace_out;

  auto config = cluster::ParseNodeList(flags.nodes);
  if (!config.ok()) {
    std::cerr << "bad --nodes: " << config.status().ToString() << "\n";
    return 1;
  }
  const size_t colon = flags.listen.rfind(':');
  if (colon == std::string::npos) {
    std::cerr << "bad --listen (want HOST:PORT)\n";
    return 1;
  }

  // Same per-shard settings as the demo's multi-tenant flow, so the
  // fleet's trajectories verify against demo-produced references.
  auto fleet =
      std::make_shared<cluster::DemoFleetEnv>(flags.statements);
  cluster::TunerNodeOptions options;
  options.node_id = flags.node_id;
  options.config = std::move(*config);
  options.host = flags.listen.substr(0, colon);
  options.port = static_cast<uint16_t>(
      std::strtoul(flags.listen.c_str() + colon + 1, nullptr, 10));
  options.router.shard.queue_capacity = 64;
  options.router.shard.max_batch = 16;
  options.router.shard.record_history = true;
  options.router.shard.checkpoint_every_statements = 200;
  options.router.checkpoint_root = flags.checkpoint_root;
  options.router.drain_threads = 2;
  options.router.repin = fleet->MakeRepinner();
  if (flags.membership) {
    if (flags.fleet_root.empty()) {
      std::cerr << "--membership requires --fleet_root (the shared "
                   "checkpoint tree failover recovers from)\n";
      return 1;
    }
    options.fleet_root = flags.fleet_root;
    options.enable_membership = true;
    options.membership.heartbeat_interval_ms = flags.heartbeat_ms;
    options.membership.lease_ms = flags.lease_ms;
    // Crash realism: a self-healing node must survive on journal +
    // checkpoint boundaries alone, exactly what a SIGKILL leaves.
    options.router.shard.checkpoint_on_shutdown = false;
  }

  cluster::TunerNode node(fleet->MakeTunerFactory(), std::move(options));
  Status st = node.Start();
  if (!st.ok()) {
    std::cerr << "start failed: " << st.ToString() << "\n";
    return 1;
  }
  std::cout << "[wfit_server] node " << node.node_id() << " listening on "
            << flags.listen.substr(0, colon) << ":" << node.port() << "\n"
            << std::flush;

  uint64_t reported_failovers = 0;
  while (!g_stop.load() && !node.ShutdownRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (g_dump_trace.exchange(false)) {
      DumpTrace(node.node_id(), trace_path);
    }
    if (cluster::Membership* membership = node.membership()) {
      const cluster::MembershipCounters counters = membership->Counters();
      if (counters.failovers > reported_failovers) {
        reported_failovers = counters.failovers;
        std::cout << "[wfit_server] node " << node.node_id()
                  << " failover completed: adopted "
                  << counters.tenants_failed_over << " tenant(s) so far, "
                  << "takeover " << counters.last_takeover_ms << "ms\n"
                  << std::flush;
      }
    }
  }
  std::cout << "[wfit_server] node " << node.node_id()
            << " shutting down gracefully (final checkpoints + journal "
               "seal)\n"
            << std::flush;
  node.Shutdown();
  if (obs::TracingEnabled()) DumpTrace(node.node_id(), trace_path);
  return 0;
}

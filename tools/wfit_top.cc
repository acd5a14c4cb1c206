// wfit_top: a console dashboard for the tuning fleet's health plane.
// Polls every node's kGetHealth report (membership states, lease ages,
// queue depths, residency, failover counters, trace volume)
// and renders one refreshing table; --scrape prints the node-labelled
// merged Prometheus exposition instead.
//
//   wfit_top --nodes=a=127.0.0.1:7501,b=127.0.0.1:7502 [--interval_ms=1000]
//   wfit_top --nodes=... --once            # one sample, no screen clear
//   wfit_top --nodes=... --scrape --once   # merged fleet metrics to stdout
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/placement.h"
#include "obs/health.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

struct Flags {
  std::string nodes;
  int interval_ms = 1000;
  bool once = false;
  bool scrape = false;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      const size_t len = std::strlen(name);
      if (arg.compare(0, len, name) == 0 && arg.size() > len &&
          arg[len] == '=') {
        return arg.c_str() + len + 1;
      }
      return nullptr;
    };
    if (const char* v = value("--nodes")) {
      flags->nodes = v;
    } else if (const char* v = value("--interval_ms")) {
      flags->interval_ms = std::atoi(v);
    } else if (arg == "--once") {
      flags->once = true;
    } else if (arg == "--scrape") {
      flags->scrape = true;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return false;
    }
  }
  return !flags->nodes.empty();
}

void PrintDashboard(const wfit::cluster::FleetHealth& fleet) {
  using std::setw;
  std::cout << setw(6) << "node" << setw(7) << "coord" << setw(9)
            << "tenants" << setw(7) << "queue" << setw(12) << "analyzed"
            << setw(10) << "failover" << setw(12)
            << "takeover" << setw(10) << "spans" << setw(8) << "drops"
            << "\n";
  for (const wfit::obs::NodeHealthReport& n : fleet.nodes) {
    std::cout << setw(6) << n.node_id << setw(7)
              << (n.acting_coordinator ? "*" : "") << setw(5)
              << n.tenants_resident << "/" << std::left << setw(3)
              << n.tenants_known << std::right << setw(7) << n.queue_depth
              << setw(12) << n.statements_analyzed << setw(10)
              << n.failovers << setw(10) << n.last_takeover_ms << "ms" << setw(10)
              << n.trace_spans << setw(8) << n.trace_dropped << "\n";
    for (const wfit::obs::PeerHealthEntry& p : n.peers) {
      std::cout << "       peer " << setw(6) << p.id << "  " << setw(8)
                << p.health << "  misses " << p.consecutive_misses
                << "  silence " << p.silence_ms << "ms\n";
    }
  }
  for (const std::string& id : fleet.unreachable) {
    std::cout << setw(6) << id << "  UNREACHABLE\n";
  }
  std::cout.flush();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::cerr << "usage: wfit_top --nodes=id=host:port,... [--interval_ms=N]"
                 " [--once] [--scrape]\n";
    return 2;
  }
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  auto config = wfit::cluster::ParseNodeList(flags.nodes);
  if (!config.ok()) {
    std::cerr << "bad --nodes: " << config.status().ToString() << "\n";
    return 2;
  }
  wfit::cluster::ClusterClientOptions copts;
  copts.rpc.timeout_ms = 2000;
  copts.retry_deadline_ms = 2000;
  wfit::cluster::ClusterClient client(*config, copts);

  while (g_stop == 0) {
    if (flags.scrape) {
      std::cout << client.ScrapeFleet();
    } else {
      wfit::cluster::FleetHealth fleet = client.FetchFleetHealth();
      if (!flags.once) std::cout << "\033[2J\033[H";
      PrintDashboard(fleet);
      if (flags.once) return fleet.nodes.empty() ? 1 : 0;
    }
    if (flags.once) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(flags.interval_ms));
  }
  return 0;
}

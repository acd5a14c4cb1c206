// wfit_top: a console dashboard for the tuning fleet's health plane.
// Scrapes every node's Prometheus exposition (kScrapeMetrics), reads
// the samples it shows with obs::ParseScrape (residency, queue depth,
// progress, coordinator flag, failover counters, trace volume, and each
// peer's health, probe misses and lease age) and renders one refreshing
// table; --scrape prints the node-labelled merged exposition instead.
//
//   wfit_top --nodes=a=127.0.0.1:7501,b=127.0.0.1:7502 [--interval_ms=1000]
//   wfit_top --nodes=... --once            # one sample, no screen clear
//   wfit_top --nodes=... --scrape --once   # merged fleet metrics to stdout
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/membership.h"
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

using Series = std::map<std::string, double>;

/// A sample as a count: 0 when absent, negative or not a number.
uint64_t Count(const Series& series, const std::string& key) {
  auto it = series.find(key);
  if (it == series.end() || !(it->second > 0)) return 0;
  return static_cast<uint64_t>(std::min(it->second, 1e19));
}

std::string PeerKey(const char* family, const std::string& peer) {
  return std::string(family) + "{peer=\"" + peer + "\"}";
}

void PrintDashboard(const wfit::cluster::FleetScrape& fleet) {
  using std::setw;
  std::cout << setw(6) << "node" << setw(7) << "coord" << setw(9)
            << "tenants" << setw(7) << "queue" << setw(12) << "analyzed"
            << setw(10) << "failover" << setw(12)
            << "takeover" << setw(10) << "spans" << setw(8) << "drops"
            << "\n";
  for (const auto& [node_id, text] : fleet.nodes) {
    const Series s = wfit::obs::ParseScrape(text);
    std::cout << setw(6) << node_id << setw(7)
              << (Count(s, "wfit_node_acting_coordinator") != 0 ? "*" : "")
              << setw(5) << Count(s, "wfit_router_tenants_resident") << "/"
              << std::left << setw(3) << Count(s, "wfit_router_tenants_known")
              << std::right << setw(7) << Count(s, "wfit_service_queue_depth")
              << setw(12) << Count(s, "wfit_service_statements_analyzed_total")
              << setw(10) << Count(s, "wfit_node_failovers_total") << setw(10)
              << Count(s, "wfit_node_last_takeover_ms") << "ms" << setw(10)
              << Count(s, "wfit_node_trace_spans_total") << setw(8)
              << Count(s, "wfit_node_trace_dropped_total") << "\n";
    // One row per peer="<id>" series of the health family; the map keeps
    // them in id order, as the node lists them.
    const std::string prefix = "wfit_node_peer_health{peer=\"";
    for (auto it = s.lower_bound(prefix);
         it != s.end() && it->first.rfind(prefix, 0) == 0; ++it) {
      const std::string& key = it->first;
      if (key.size() < prefix.size() + 2 ||
          key.compare(key.size() - 2, 2, "\"}") != 0) {
        continue;
      }
      const std::string peer =
          key.substr(prefix.size(), key.size() - prefix.size() - 2);
      const uint64_t health = Count(s, key);
      std::cout << "       peer " << setw(6) << peer << "  " << setw(8)
                << (health <= 2 ? wfit::cluster::NodeHealthName(
                                      static_cast<wfit::cluster::NodeHealth>(
                                          health))
                                : "unknown")
                << "  misses " << Count(s, PeerKey("wfit_node_peer_misses", peer))
                << "  silence "
                << Count(s, PeerKey("wfit_node_peer_silence_ms", peer))
                << "ms\n";
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
      wfit::cluster::FleetScrape fleet = client.ScrapeNodes();
      if (!flags.once) std::cout << "\033[2J\033[H";
      PrintDashboard(fleet);
      if (flags.once) return fleet.nodes.empty() ? 1 : 0;
    }
    if (flags.once) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(flags.interval_ms));
  }
  return 0;
}

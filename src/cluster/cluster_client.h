// Fleet-aware client: routes each tenant's RPCs to the owning node
// computed from its local copy of the ClusterConfig, and self-repairs
// when the fleet disagrees. A kNotLeader redirect carries the owner's
// address and config version — the client follows it, refreshes its
// config from the node that knows better, and retries; kBusy
// (backpressure) retries with a small delay. Both are bounded by a
// deadline so a wedged fleet surfaces as a Status, not a hang.
//
// During a migration handoff there is a window where the source
// redirects to the target while the target still bounces back (its
// config catches up when kMigrateIn lands); the retry loop rides that
// ping-pong out. NOT thread-safe: one ClusterClient per producer thread.
#ifndef WFIT_CLUSTER_CLUSTER_CLIENT_H_
#define WFIT_CLUSTER_CLUSTER_CLIENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/placement.h"
#include "common/status.h"
#include "net/client.h"
#include "net/wire.h"

namespace wfit::cluster {

/// One kScrapeMetrics sweep across the fleet: each answering node's
/// Prometheus exposition, plus the ids that could not be reached
/// (known-dead nodes are skipped entirely — they are expected to be
/// silent). This is the fleet health plane; obs::ParseScrape reads it.
struct FleetScrape {
  std::vector<std::pair<std::string, std::string>> nodes;  // (id, text)
  std::vector<std::string> unreachable;
};

struct ClusterClientOptions {
  net::Client::Options rpc;
  /// Budget for redirect chasing + busy retries per Call.
  int retry_deadline_ms = 30000;
  /// Retry pacing: capped exponential backoff with decorrelated jitter
  /// (sleep ~ uniform[initial, 3 * previous], clamped to the cap), so a
  /// fleet of producers retrying into the same failover window spreads
  /// out instead of thundering in lockstep.
  int backoff_initial_ms = 2;
  int backoff_cap_ms = 200;
  /// 0 seeds the jitter from std::random_device; tests pin it. Jitter
  /// shapes retry TIMING only — it never touches what is submitted, so
  /// trajectories stay deterministic either way.
  uint64_t jitter_seed = 0;
};

class ClusterClient {
 public:
  explicit ClusterClient(ClusterConfig config,
                         ClusterClientOptions options = {});
  /// Routes by tenant ownership, following redirects and riding out
  /// kBusy backpressure. Returns the first kOk/kError response.
  StatusOr<net::Response> Call(const std::string& tenant,
                               net::Request request);
  /// Sends to one specific node, no routing (admin RPCs, scrapes).
  /// Fails fast with NotFound once the node is known-dead: a node seen
  /// in an older config but absent from a newer one was removed by
  /// failover/decommission and will never answer again.
  StatusOr<net::Response> CallNode(const std::string& node_id,
                                   net::Request request);
  /// Scrapes every live node in the current config. Never fails: nodes
  /// that do not answer land in `unreachable`.
  FleetScrape ScrapeNodes();
  /// ScrapeNodes merged into one exposition with a node="<id>" label
  /// injected on each sample (obs::MergeFleetScrapeText).
  std::string ScrapeFleet();
  const ClusterConfig& config() const { return config_; }
  /// True once membership removed `node_id` from a config this client
  /// has adopted.
  bool IsKnownDead(const std::string& node_id) const {
    return dead_nodes_.count(node_id) != 0;
  }

 private:
  StatusOr<net::Response> CallAddr(const std::string& node_id,
                                   const std::string& host, uint16_t port,
                                   const net::Request& request);
  /// Pulls the full config from a node that advertised a newer version.
  void RefreshConfigFrom(const std::string& host, uint16_t port);
  /// Asks every node except `skip` for a fresher config (first success
  /// wins) — the self-repair path when the presumed owner goes dark.
  void RefreshConfigFromAnyBut(const std::string& skip);
  /// Adopts `fresh` when newer, recording nodes that vanished as dead.
  void AdoptConfig(ClusterConfig fresh);
  /// Decorrelated-jitter backoff; advances *prev_ms.
  int NextBackoffMs(int* prev_ms);

  ClusterConfig config_;
  ClusterClientOptions options_;
  /// Connection per node, reused across calls; dropped on RPC failure.
  std::map<std::string, std::unique_ptr<net::Client>> conns_;
  /// Nodes that a newer config no longer contains.
  std::set<std::string> dead_nodes_;
  std::mt19937_64 jitter_;
};

}  // namespace wfit::cluster

#endif  // WFIT_CLUSTER_CLUSTER_CLIENT_H_

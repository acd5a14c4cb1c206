// Lease-based cluster membership and self-healing for the tuning fleet.
//
// Every membership-enabled node runs two background threads:
//
//   * a HEARTBEAT thread that probes every peer in the current
//     ClusterConfig each interval (kHeartbeat RPC). A peer that misses L
//     consecutive probes is SUSPECT; a peer from which nothing has been
//     heard — no probe answer AND no incoming heartbeat — for a full
//     lease is DEAD. Incoming heartbeats refresh the sender's lease
//     (passive liveness), so a one-way partition makes a peer suspect
//     but never falsely dead: as long as the peer can still reach us, it
//     stays in the cluster.
//
//   * an ORCHESTRATOR thread that executes failovers, so multi-second
//     checkpoint I/O never stalls the probe cadence (a stalled prober
//     would age every peer's lease at once). It sleeps until the
//     heartbeat thread queues a dead peer or Shutdown wakes it.
//
// There is no elected leader: the ACTING COORDINATOR is simply the
// lowest node id not currently considered dead — every node computes it
// locally, and only the coordinator fails over. Tenants move between
// live nodes only when asked: a kMigrate for one tenant, or a
// Decommission that drains one node. Heartbeats carry config versions both ways, so a node
// that fell behind pulls the newer config on the next tick.
//
// FAILOVER: when a peer's lease expires, the coordinator builds the
// successor config (dead node removed, its overrides dropped, version
// bumped), re-places every tenant found under the dead node's slice of
// the shared checkpoint tree by rendezvous hash onto the survivors,
// lands each tenant's packed tree at its new owner (kMigrateIn with an
// empty config blob), and only THEN installs + fans out the successor
// config — the same land-before-adopt ordering the migration path uses,
// so a redirected client can never admit a tenant mid-unpack. Recovery
// replays from the last durable boundary; statements that died in the
// dead node's ingest queue were never journaled, which is why producers
// re-submit from the analyzed watermark (exactly-once dedup drops what
// did survive). The result is the paper-level invariant: the resumed
// trajectory is bit-for-bit what an uninterrupted run would have
// produced from that boundary.
//
// Split brain: with no quorum, a full symmetric partition can make both
// halves act as coordinator. Configs are versioned and higher-version-
// wins on heal, and the DBA stays in the loop (semi-automatic tuning's
// premise) — this layer targets crash failures, not Byzantine ones.
#ifndef WFIT_CLUSTER_MEMBERSHIP_H_
#define WFIT_CLUSTER_MEMBERSHIP_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/placement.h"
#include "common/status.h"
#include "net/client.h"

namespace wfit::cluster {

class TunerNode;

enum class NodeHealth : uint8_t { kAlive = 0, kSuspect = 1, kDead = 2 };

const char* NodeHealthName(NodeHealth health);

struct MembershipOptions {
  int heartbeat_interval_ms = 50;
  /// Consecutive missed probes before a peer is SUSPECT.
  int suspect_after_misses = 3;
  /// Silence (no probe answer, no incoming heartbeat) before DEAD.
  int lease_ms = 600;
  /// Per-probe RPC budget; also bounds the connect.
  int rpc_timeout_ms = 250;
};

struct PeerView {
  std::string id;
  NodeHealth health = NodeHealth::kAlive;
  uint64_t consecutive_misses = 0;
  /// Milliseconds since we last heard from the peer, either way.
  uint64_t silence_ms = 0;
};

struct MembershipCounters {
  uint64_t heartbeats_sent = 0;
  uint64_t heartbeats_received = 0;
  uint64_t probe_misses = 0;
  uint64_t failovers = 0;
  uint64_t tenants_failed_over = 0;
  uint64_t failover_errors = 0;
  uint64_t decommissions = 0;
  /// Wall-clock of the most recent failover, lease expiry -> config live.
  uint64_t last_takeover_ms = 0;
};

class Membership {
 public:
  Membership(TunerNode* node, MembershipOptions options);
  ~Membership();

  Membership(const Membership&) = delete;
  Membership& operator=(const Membership&) = delete;

  void Start();
  void Shutdown();

  /// Called by the node's kHeartbeat handler: refreshes the sender's
  /// lease and notes a fresher config version to pull.
  void ObserveHeartbeat(const std::string& from_node_id,
                        uint64_t config_version);

  /// Drains `node_id` (live-migrating each of its tenants to the tenant's
  /// rendezvous owner among the remaining nodes) and installs a config
  /// without it. Moves ONLY that node's tenants. Runs synchronously on
  /// the caller's thread (the server admin thread for kDecommission).
  Status Decommission(const std::string& node_id);

  /// True when this node is the lowest-id node not considered dead.
  bool IsActingCoordinator();

  std::vector<PeerView> Peers();
  MembershipCounters Counters();

 private:
  struct PeerState {
    NodeHealth health = NodeHealth::kAlive;
    uint64_t misses = 0;
    std::chrono::steady_clock::time_point last_heard;
    /// Set once a failover for this peer has been handed to the
    /// orchestrator; a peer is failed over at most once per config.
    bool failover_enqueued = false;
  };

  void HeartbeatLoop();
  void OrchestratorLoop();
  void ProbeAndEvaluate();
  /// Executes the takeover of a dead node (orchestrator thread).
  void FailOverDeadNode(const std::string& dead_id);
  /// Fans `config` out to every node in it except self (best effort).
  void FanOutConfig(const ClusterConfig& config);
  StatusOr<net::Response> CallPeer(const NodeInfo& peer,
                                   const net::Request& request,
                                   int timeout_ms);

  TunerNode* node_;
  MembershipOptions options_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::map<std::string, PeerState> peers_;
  /// Node id advertising a config newer than ours (pull next tick).
  std::string pull_config_from_;
  std::deque<std::string> failover_queue_;
  MembershipCounters counters_;

  std::thread hb_thread_;
  std::thread orch_thread_;
  bool started_ = false;
  bool shut_down_ = false;
};

}  // namespace wfit::cluster

#endif  // WFIT_CLUSTER_MEMBERSHIP_H_

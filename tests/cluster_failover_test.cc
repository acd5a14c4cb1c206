// The self-healing guarantees of the membership layer: a node killed
// mid-workload is detected by lease expiry, its tenants are adopted by
// the survivors from the shared checkpoint tree, and the resumed
// trajectory is bit-for-bit what an uninterrupted run would have
// produced from the last durable boundary. Failover moves ONLY the dead
// node's tenants; a one-way partition makes a peer suspect but never
// falsely dead; the whole stack survives a deterministic fault-injection
// soak; and decommission moves only the leaving node's tenants.
#include "cluster/membership.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/demo_env.h"
#include "cluster/node.h"
#include "cluster/placement.h"
#include "net/fault.h"
#include "obs/health.h"

namespace fs = std::filesystem;

namespace wfit::cluster {
namespace {

constexpr size_t kLongWorkload = 220;   // vote pinned after statement 149
constexpr size_t kShortWorkload = 60;   // below the first vote stage
const char kTenant[] = "tenant-0";

std::string TempRoot(const std::string& tag) {
  std::string dir = (fs::path(::testing::TempDir()) /
                     ("wfit_failover_" + tag + "_" +
                      std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  return dir;
}

service::TenantRouterOptions RouterOptions() {
  service::TenantRouterOptions options;
  options.shard.queue_capacity = 32;
  options.shard.max_batch = 8;
  options.shard.record_history = true;
  options.shard.checkpoint_every_statements = 100;
  // Crash realism: no parting checkpoint — only journaled state
  // survives, exactly what a SIGKILL would leave behind, so Shutdown()
  // stands in for a crash here. True SIGKILL semantics (no destructors
  // at all) are exercised by the two-process CI chaos smoke.
  options.shard.checkpoint_on_shutdown = false;
  options.drain_threads = 1;
  return options;
}

/// What a dedicated, never-disturbed router recommends for tenant-0
/// across the long workload (votes registered up front).
const std::vector<IndexSet>& ReferenceTrajectory() {
  static const std::vector<IndexSet>* reference = [] {
    auto env = std::make_shared<DemoFleetEnv>(kLongWorkload);
    auto options = RouterOptions();
    options.repin = env->MakeRepinner();
    service::TenantRouter router(env->MakeTunerFactory(), options);
    router.Start();
    for (const service::PinnedVote& vote : env->PinnedVotesFor(0, 0)) {
      router.FeedbackAfter(kTenant, vote.after_seq, vote.f_plus,
                           vote.f_minus);
    }
    const Workload& workload = env->Env(0).workload;
    for (size_t seq = 0; seq < workload.size(); ++seq) {
      EXPECT_TRUE(router.SubmitAt(kTenant, seq, workload[seq]));
    }
    EXPECT_TRUE(router.WaitUntilAnalyzed(kTenant, kLongWorkload));
    auto* history = new std::vector<IndexSet>(router.History(kTenant));
    router.Shutdown();
    return history;
  }();
  return *reference;
}

/// A membership-enabled in-process fleet sharing one DemoFleetEnv and
/// one fleet checkpoint root (node `n` persists under <root>/<n>, which
/// is what failover recovers from).
struct Fleet {
  std::shared_ptr<DemoFleetEnv> env;
  std::string fleet_root;
  std::vector<std::unique_ptr<TunerNode>> nodes;
  ClusterConfig config;

  Fleet(const std::string& tag, size_t statements,
        const std::vector<std::string>& ids,
        const MembershipOptions& membership,
        const std::map<std::string, std::string>& overrides = {})
      : env(std::make_shared<DemoFleetEnv>(statements)),
        fleet_root(TempRoot(tag)) {
    ClusterConfig boot;
    boot.version = 1;
    for (const std::string& id : ids) {
      boot.nodes.push_back({id, "127.0.0.1", 0});
    }
    boot.Normalize();
    for (const std::string& id : ids) {
      TunerNodeOptions options;
      options.node_id = id;
      options.config = boot;
      options.router = RouterOptions();
      options.router.repin = env->MakeRepinner();
      options.fleet_root = fleet_root;
      options.enable_membership = true;
      options.membership = membership;
      nodes.push_back(std::make_unique<TunerNode>(env->MakeTunerFactory(),
                                                  std::move(options)));
      EXPECT_TRUE(nodes.back()->Start().ok());
    }
    config.version = 2;
    for (auto& node : nodes) {
      config.nodes.push_back({node->node_id(), "127.0.0.1", node->port()});
    }
    for (const auto& [tenant, node] : overrides) {
      config.overrides[tenant] = node;
    }
    config.Normalize();
    for (auto& node : nodes) node->InstallConfig(config);
  }

  TunerNode& Node(const std::string& id) {
    for (auto& node : nodes) {
      if (node->node_id() == id) return *node;
    }
    ADD_FAILURE() << "no node " << id;
    return *nodes.front();
  }

  void Shutdown() {
    for (auto& node : nodes) node->Shutdown();
  }
};

ClusterClient MakeClient(const Fleet& fleet, uint64_t jitter_seed,
                         int retry_deadline_ms = 5000) {
  ClusterClientOptions options;
  options.retry_deadline_ms = retry_deadline_ms;
  options.jitter_seed = jitter_seed;
  return ClusterClient(fleet.config, options);
}

/// `node_id`'s own kScrapeMetrics exposition, parsed.
std::map<std::string, double> ScrapeOf(const Fleet& fleet,
                                       const std::string& node_id) {
  ClusterClient client = MakeClient(fleet, /*jitter_seed=*/1);
  net::Request req;
  req.type = net::MsgType::kScrapeMetrics;
  auto resp = client.CallNode(node_id, req);
  EXPECT_TRUE(resp.ok() && resp->kind == net::RespKind::kOk)
      << "scrape of " << node_id << " failed";
  return resp.ok() ? obs::ParseScrape(resp->text)
                   : std::map<std::string, double>{};
}

/// Resident + persisted tenants of a node, deduplicated.
std::vector<std::string> TenantsAt(TunerNode& node) {
  std::vector<std::string> all = node.router().ResidentTenants();
  for (std::string& t : node.router().PersistedTenants()) {
    if (std::find(all.begin(), all.end(), t) == all.end()) {
      all.push_back(std::move(t));
    }
  }
  std::sort(all.begin(), all.end());
  return all;
}

bool Holds(TunerNode& node, const std::string& tenant) {
  const std::vector<std::string> all = TenantsAt(node);
  return std::find(all.begin(), all.end(), tenant) != all.end();
}

MembershipOptions FastMembership() {
  MembershipOptions m;
  m.heartbeat_interval_ms = 25;
  m.suspect_after_misses = 3;
  m.lease_ms = 500;
  m.rpc_timeout_ms = 100;
  return m;
}

// --- 1. The tentpole: SIGKILL mid-workload, survivor adopts, suffix ---
// --- trajectory is bit-for-bit the reference from the last durable  ---
// --- boundary.                                                      ---

TEST(ClusterFailoverTest, FailoverRecoversTenantBitIdentical) {
  const std::vector<IndexSet>& reference = ReferenceTrajectory();
  ASSERT_EQ(reference.size(), kLongWorkload);

  // Pin the tenant to "a", the node we will kill. "b" (the survivor)
  // becomes acting coordinator the moment a's lease expires.
  Fleet fleet("bitident", kLongWorkload, {"a", "b"}, FastMembership(),
              {{kTenant, "a"}});

  std::atomic<bool> replay_ok{false};
  std::thread producer([&] {
    ClusterClient client = MakeClient(fleet, /*jitter_seed=*/42,
                                      /*retry_deadline_ms=*/3000);
    replay_ok.store(
        ReplayTenantWorkload(client, *fleet.env, 0, true, 120000));
  });

  // Kill "a" once the tenant is mid-workload. The statement-149 vote is
  // still in its future: recovery must re-pin it (repinner) and the
  // producer must resubmit what died in a's ingest queue.
  constexpr uint64_t kKillAfter = 60;
  TunerNode& a = fleet.Node("a");
  TunerNode& b = fleet.Node("b");
  while (a.router().analyzed(kTenant) < kKillAfter) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  a.Shutdown();

  producer.join();
  EXPECT_TRUE(replay_ok.load());

  // The survivor adopted the tenant and finished the workload.
  EXPECT_TRUE(b.router().IsResident(kTenant));
  EXPECT_EQ(b.router().analyzed(kTenant), kLongWorkload);
  EXPECT_EQ(b.Config().FindNode("a"), nullptr);
  const MembershipCounters counters = b.membership()->Counters();
  EXPECT_GE(counters.failovers, 1u);
  EXPECT_GE(counters.tenants_failed_over, 1u);
  EXPECT_GT(counters.last_takeover_ms, 0u);
  // The same facts reach an operator through the survivor's scrape. The
  // dead node left the config and so the peer set: no series names it.
  const std::map<std::string, double> scrape = ScrapeOf(fleet, "b");
  ASSERT_TRUE(scrape.count("wfit_node_failovers_total"));
  EXPECT_EQ(scrape.at("wfit_node_failovers_total"), 1.0);
  for (const auto& [series, value] : scrape) {
    EXPECT_EQ(series.find("peer=\"a\""), std::string::npos) << series;
  }

  // Bit-for-bit identity from the last durable boundary: b's history
  // self-describes where it starts; every entry must match what the
  // never-disturbed reference produced at the same sequence. The start
  // must sit before the vote boundary (kill at ~60 + a ring of slack),
  // or the test would not prove the vote survived the failover.
  const uint64_t start = b.router().HistoryStart(kTenant);
  const std::vector<IndexSet> suffix = b.router().History(kTenant);
  ASSERT_EQ(start + suffix.size(), kLongWorkload);
  EXPECT_LT(start, 149u);
  for (size_t i = 0; i < suffix.size(); ++i) {
    ASSERT_EQ(suffix[i], reference[start + i])
        << "trajectory diverged at statement " << (start + i);
  }
  fleet.Shutdown();
}

// --- 2. Failover moves ONLY the dead node's tenants. ---

TEST(ClusterFailoverTest, FailoverMovesOnlyDeadNodesTenants) {
  Fleet fleet("onlydead", kShortWorkload, {"a", "b", "c"},
              FastMembership(),
              {{"tenant-0", "a"},
               {"tenant-1", "b"},
               {"tenant-2", "c"},
               {"tenant-3", "c"}});

  for (size_t t = 0; t < 4; ++t) {
    ClusterClient client = MakeClient(fleet, 100 + t);
    ASSERT_TRUE(ReplayTenantWorkload(client, *fleet.env, t, false, 60000))
        << "tenant-" << t;
  }
  TunerNode& a = fleet.Node("a");
  TunerNode& b = fleet.Node("b");
  ASSERT_TRUE(a.router().IsResident("tenant-0"));
  ASSERT_TRUE(b.router().IsResident("tenant-1"));

  fleet.Node("c").Shutdown();

  // "a" (lowest live id) is the acting coordinator; wait for it to
  // remove "c" from the config.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (a.Config().FindNode("c") != nullptr &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(a.Config().FindNode("c"), nullptr) << "failover never ran";
  // The config flips before the takeover bookkeeping (eager re-admission
  // of adopted tenants runs in between); wait for the counters too.
  while (a.membership()->Counters().tenants_failed_over < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Survivors' own tenants never moved — same incarnation, history
  // still starts at 0, resident all along.
  EXPECT_TRUE(a.router().IsResident("tenant-0"));
  EXPECT_TRUE(b.router().IsResident("tenant-1"));
  EXPECT_EQ(a.router().HistoryStart("tenant-0"), 0u);
  EXPECT_EQ(b.router().HistoryStart("tenant-1"), 0u);
  EXPECT_FALSE(Holds(a, "tenant-1"));
  EXPECT_FALSE(Holds(b, "tenant-0"));

  // The dead node's tenants were re-placed by rendezvous hash onto the
  // survivors (their overrides pointed at "c" and were dropped), and
  // live exactly where the successor config says.
  EXPECT_EQ(a.membership()->Counters().tenants_failed_over, 2u);
  const ClusterConfig after = a.Config();
  for (const std::string tenant : {"tenant-2", "tenant-3"}) {
    const std::string owner = OwnerOf(after, tenant)->id;
    ASSERT_TRUE(owner == "a" || owner == "b");
    EXPECT_TRUE(Holds(fleet.Node(owner), tenant)) << tenant;
    EXPECT_FALSE(Holds(fleet.Node(owner == "a" ? "b" : "a"), tenant))
        << tenant;
  }

  // The adopted tenants recover and finish serving: replaying their
  // (already fully analyzed) workload must converge without loss.
  for (size_t t = 2; t < 4; ++t) {
    ClusterClient client = MakeClient(fleet, 200 + t);
    EXPECT_TRUE(ReplayTenantWorkload(client, *fleet.env, t, false, 60000))
        << "tenant-" << t;
  }
  fleet.Shutdown();
}

// --- 3. One-way partition: suspect, never falsely dead. ---

TEST(ClusterFailoverTest, OneWayPartitionSuspectsButNeverKills) {
  net::ScopedFaultInjection faults(net::FaultOptions{});  // partitions only
  MembershipOptions membership = FastMembership();
  membership.lease_ms = 400;
  Fleet fleet("oneway", kShortWorkload, {"a", "b"}, membership);
  TunerNode& a = fleet.Node("a");
  TunerNode& b = fleet.Node("b");

  // Block this process's traffic TOWARD b: a's probes of b now fail,
  // while b's probes of a still land (and refresh b's lease at a — the
  // passive half of the protocol).
  net::FaultInjector::Get()->PartitionTo("127.0.0.1", b.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));

  bool saw_suspect = false;
  for (const PeerView& peer : a.membership()->Peers()) {
    if (peer.id != "b") continue;
    EXPECT_NE(peer.health, NodeHealth::kDead)
        << "one-way partition must never look like a death";
    saw_suspect = peer.health == NodeHealth::kSuspect;
    EXPECT_GE(peer.consecutive_misses, 3u);
  }
  EXPECT_TRUE(saw_suspect);
  // The scrape tells an operator the same: a coordinates, b is suspect
  // after at least three missed probes, and b's lease age is exported.
  const std::map<std::string, double> scrape = ScrapeOf(fleet, "a");
  ASSERT_TRUE(scrape.count("wfit_node_acting_coordinator"));
  EXPECT_EQ(scrape.at("wfit_node_acting_coordinator"), 1.0);
  ASSERT_TRUE(scrape.count("wfit_node_peer_health{peer=\"b\"}"));
  EXPECT_EQ(scrape.at("wfit_node_peer_health{peer=\"b\"}"), 1.0);
  ASSERT_TRUE(scrape.count("wfit_node_peer_misses{peer=\"b\"}"));
  EXPECT_GE(scrape.at("wfit_node_peer_misses{peer=\"b\"}"), 3.0);
  EXPECT_TRUE(scrape.count("wfit_node_peer_silence_ms{peer=\"b\"}"));
  EXPECT_EQ(a.membership()->Counters().failovers, 0u);
  EXPECT_EQ(b.membership()->Counters().failovers, 0u);
  EXPECT_NE(a.Config().FindNode("b"), nullptr);
  EXPECT_GT(net::FaultInjector::Get()->counters().partition_blocks, 0u);

  // Heal: the next successful probe clears the misses and the peer
  // drops back to alive on its own.
  net::FaultInjector::Get()->HealAll();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool alive = false;
  while (!alive && std::chrono::steady_clock::now() < deadline) {
    for (const PeerView& peer : a.membership()->Peers()) {
      if (peer.id == "b" && peer.health == NodeHealth::kAlive) alive = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(alive);
  fleet.Shutdown();
}

// Node ids are free-form (ParseNodeList accepts any), so a quote or a
// backslash in one must reach the scrape escaped; raw, the sample line no
// longer parses and the peer vanishes from every dashboard.
TEST(ClusterFailoverTest, PeerIdsAreEscapedInTheScrape) {
  MembershipOptions membership = FastMembership();
  // Never suspect or dead during the test, so the health value is fixed.
  membership.suspect_after_misses = 1 << 30;
  membership.lease_ms = 600'000;
  Fleet fleet("escaped_peer", kShortWorkload, {"a", "a\"b\\c"}, membership);
  // Peers are tracked from the first membership tick on.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fleet.Node("a").membership()->Peers().empty() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const std::map<std::string, double> scrape = ScrapeOf(fleet, "a");
  const std::string key = "wfit_node_peer_health{peer=\"a\\\"b\\\\c\"}";
  ASSERT_TRUE(scrape.count(key)) << "no series " << key;
  EXPECT_EQ(scrape.at(key), 0.0);  // alive
  EXPECT_TRUE(scrape.count("wfit_node_peer_misses{peer=\"a\\\"b\\\\c\"}"));
  fleet.Shutdown();
}

// --- 4. Deterministic chaos soak: scripted drops, tears, duplicates ---
// --- and delays — the trajectory still matches the clean reference. ---

TEST(ClusterFailoverTest, ChaosSoakKeepsTrajectoryIdentical) {
  const std::vector<IndexSet>& reference = ReferenceTrajectory();

  net::FaultOptions chaos;
  chaos.seed = 99;
  chaos.connect_fail = 0.05;
  chaos.send_drop = 0.05;
  chaos.send_tear = 0.03;
  chaos.send_dup = 0.03;
  chaos.delay = 0.10;
  chaos.delay_ms = 2;
  net::ScopedFaultInjection faults(chaos);

  // Generous lease: probes do get dropped, but never for a whole lease
  // in a row — nobody must die in this test.
  MembershipOptions membership;
  membership.heartbeat_interval_ms = 50;
  membership.suspect_after_misses = 3;
  membership.lease_ms = 2000;
  membership.rpc_timeout_ms = 250;
  Fleet fleet("chaos", kLongWorkload, {"a", "b"}, membership);

  ClusterClient client = MakeClient(fleet, /*jitter_seed=*/7);
  ASSERT_TRUE(ReplayTenantWorkload(client, *fleet.env, 0, true, 120000));

  TunerNode& owner = fleet.Node(OwnerOf(fleet.config, kTenant)->id);
  EXPECT_EQ(owner.router().analyzed(kTenant), kLongWorkload);
  EXPECT_EQ(owner.router().HistoryStart(kTenant), 0u);
  const std::vector<IndexSet> history = owner.router().History(kTenant);
  ASSERT_EQ(history.size(), kLongWorkload);
  for (size_t seq = 0; seq < kLongWorkload; ++seq) {
    ASSERT_EQ(history[seq], reference[seq])
        << "chaos changed the trajectory at statement " << seq;
  }
  // The soak must actually have injected faults, and survived them
  // without declaring anyone dead.
  EXPECT_GT(net::FaultInjector::Get()->counters().total(), 0u);
  EXPECT_EQ(fleet.Node("a").membership()->Counters().failovers, 0u);
  EXPECT_EQ(fleet.Node("b").membership()->Counters().failovers, 0u);
  fleet.Shutdown();
}

// --- 5. Decommission drains ONLY the leaving node, which stays alive ---
// --- (empty) until the operator shuts it down.                       ---

TEST(ClusterFailoverTest, DecommissionMovesOnlyLeavingNodesTenants) {
  MembershipOptions membership = FastMembership();
  membership.lease_ms = 3000;  // drain I/O must not read as death
  Fleet fleet("decomm", kShortWorkload, {"a", "b", "c"}, membership,
              {{"tenant-0", "a"},
               {"tenant-1", "b"},
               {"tenant-2", "c"},
               {"tenant-3", "c"}});

  for (size_t t = 0; t < 4; ++t) {
    ClusterClient client = MakeClient(fleet, 400 + t);
    ASSERT_TRUE(ReplayTenantWorkload(client, *fleet.env, t, false, 60000))
        << "tenant-" << t;
  }
  TunerNode& a = fleet.Node("a");
  TunerNode& b = fleet.Node("b");
  TunerNode& c = fleet.Node("c");

  ClusterClient admin = MakeClient(fleet, 9, /*retry_deadline_ms=*/30000);
  net::Request req;
  req.type = net::MsgType::kDecommission;
  req.target_node = "c";
  auto resp = admin.CallNode("a", std::move(req));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->kind, net::RespKind::kOk) << resp->message;

  // Only c's tenants moved; the others kept their incarnations.
  EXPECT_EQ(a.Config().FindNode("c"), nullptr);
  EXPECT_TRUE(a.router().IsResident("tenant-0"));
  EXPECT_TRUE(b.router().IsResident("tenant-1"));
  EXPECT_EQ(a.router().HistoryStart("tenant-0"), 0u);
  EXPECT_EQ(b.router().HistoryStart("tenant-1"), 0u);
  EXPECT_TRUE(TenantsAt(c).empty());
  const ClusterConfig after = a.Config();
  for (const std::string tenant : {"tenant-2", "tenant-3"}) {
    const std::string owner = OwnerOf(after, tenant)->id;
    ASSERT_TRUE(owner == "a" || owner == "b");
    EXPECT_TRUE(Holds(fleet.Node(owner), tenant)) << tenant;
  }
  EXPECT_EQ(a.membership()->Counters().decommissions, 1u);

  // The drained node is still alive — it answers RPCs, just owns
  // nothing. The operator decides when it actually goes away.
  net::Client direct;
  ASSERT_TRUE(direct.Connect("127.0.0.1", c.port()).ok());
  net::Request ping;
  ping.type = net::MsgType::kGetConfig;
  auto pong = direct.Call(ping);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->kind, net::RespKind::kOk);
  fleet.Shutdown();
}

}  // namespace
}  // namespace wfit::cluster

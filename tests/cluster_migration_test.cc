// The tentpole guarantee of the distributed control plane: a tenant
// migrated LIVE between two TunerNodes — mid-workload, with a DBA vote
// still pending in its future — produces a recommendation trajectory
// bit-for-bit identical to a dedicated, never-migrated router. Also:
// failed handoffs revert cleanly (the tenant keeps running at the
// source) and the stitched source+target histories cover every
// statement exactly once.
#include "cluster/node.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/demo_env.h"
#include "cluster/placement.h"
#include "obs/health.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "persist/codec.h"

namespace fs = std::filesystem;

namespace wfit::cluster {
namespace {

constexpr size_t kStatements = 220;  // votes pinned after 149
constexpr uint64_t kMigrateAfter = 100;
const char kTenant[] = "tenant-0";

std::string TempRoot(const std::string& tag) {
  std::string dir = (fs::path(::testing::TempDir()) /
                     ("wfit_cluster_" + tag + "_" +
                      std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  return dir;
}

service::TenantRouterOptions RouterOptions(const std::string& root) {
  service::TenantRouterOptions options;
  options.shard.queue_capacity = 32;
  options.shard.max_batch = 8;
  options.shard.record_history = true;
  options.shard.checkpoint_every_statements = 100;
  options.checkpoint_root = root;
  options.drain_threads = 1;
  return options;
}

/// What a dedicated single-node router recommends for tenant-0 across
/// the whole workload (votes registered up front, like every client).
/// Computed once — it seeds the expectation of every test here.
const std::vector<IndexSet>& ReferenceTrajectory() {
  static const std::vector<IndexSet>* reference = [] {
    auto env = std::make_shared<DemoFleetEnv>(kStatements);
    auto options = RouterOptions("");  // no durability needed
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
    EXPECT_TRUE(router.WaitUntilAnalyzed(kTenant, kStatements));
    auto* history = new std::vector<IndexSet>(router.History(kTenant));
    router.Shutdown();
    return history;
  }();
  return *reference;
}

/// A two-node in-process cluster sharing one DemoFleetEnv (both nodes
/// re-intern into the same per-tenant pools, as re-admission requires).
struct TwoNodeCluster {
  std::shared_ptr<DemoFleetEnv> env;
  std::unique_ptr<TunerNode> a;
  std::unique_ptr<TunerNode> b;
  ClusterConfig config;

  explicit TwoNodeCluster(const std::string& tag)
      : env(std::make_shared<DemoFleetEnv>(kStatements)) {
    ClusterConfig boot;
    boot.version = 1;
    boot.nodes = {{"a", "127.0.0.1", 0}, {"b", "127.0.0.1", 0}};
    boot.Normalize();
    a = MakeNode("a", boot, tag);
    b = MakeNode("b", boot, tag);
    EXPECT_TRUE(a->Start().ok());
    EXPECT_TRUE(b->Start().ok());
    // Each node only knows its own ephemeral port; publish the complete
    // layout to both as version 2.
    config.version = 2;
    config.nodes = {{"a", "127.0.0.1", a->port()},
                    {"b", "127.0.0.1", b->port()}};
    config.Normalize();
    a->InstallConfig(config);
    b->InstallConfig(config);
  }

  std::unique_ptr<TunerNode> MakeNode(const std::string& id,
                                      const ClusterConfig& boot,
                                      const std::string& tag) {
    TunerNodeOptions options;
    options.node_id = id;
    options.config = boot;
    options.router = RouterOptions(TempRoot(tag + "_" + id));
    options.router.repin = env->MakeRepinner();
    return std::make_unique<TunerNode>(env->MakeTunerFactory(),
                                       std::move(options));
  }

  TunerNode& Owner() {
    return OwnerOf(config, kTenant)->id == "a" ? *a : *b;
  }
  TunerNode& Other() {
    return OwnerOf(config, kTenant)->id == "a" ? *b : *a;
  }

  void Shutdown() {
    a->Shutdown();
    b->Shutdown();
  }
};

/// Registers the vote schedule, then replays the whole workload through
/// the cluster client (which absorbs redirects, kBusy backpressure and
/// the migration window) and waits for full analysis.
void RunWorkload(const ClusterConfig& config, DemoFleetEnv& env,
                 std::atomic<bool>* failed) {
  ClusterClient client(config);
  for (const service::PinnedVote& vote : env.PinnedVotesFor(0, 0)) {
    net::Request req;
    req.type = net::MsgType::kFeedbackAfter;
    req.seq = vote.after_seq;
    req.f_plus = vote.f_plus;
    req.f_minus = vote.f_minus;
    auto resp = client.Call(kTenant, std::move(req));
    if (!resp.ok() || resp->kind != net::RespKind::kOk) {
      failed->store(true);
      return;
    }
  }
  const Workload& workload = env.Env(0).workload;
  for (size_t seq = 0; seq < workload.size(); ++seq) {
    net::Request req;
    req.type = net::MsgType::kSubmitAt;
    req.seq = seq;
    req.has_statement = true;
    req.statement = workload[seq];
    auto resp = client.Call(kTenant, std::move(req));
    if (!resp.ok() || resp->kind != net::RespKind::kOk) {
      failed->store(true);
      return;
    }
  }
  while (true) {
    net::Request probe;
    probe.type = net::MsgType::kGetAnalyzed;
    auto resp = client.Call(kTenant, probe);
    if (resp.ok() && resp->kind == net::RespKind::kOk &&
        resp->analyzed >= workload.size()) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

uint64_t AnalyzedNow(ClusterClient& client) {
  net::Request probe;
  probe.type = net::MsgType::kGetAnalyzed;
  auto resp = client.Call(kTenant, probe);
  if (!resp.ok() || resp->kind != net::RespKind::kOk) return 0;
  return resp->analyzed;
}

/// Reassembles tenant-0's trajectory from both nodes' history segments
/// (each self-describes its start). Gaps or overlaps with disagreeing
/// entries fail the test.
std::vector<IndexSet> Stitch(TwoNodeCluster& cluster) {
  std::vector<std::optional<IndexSet>> slots(kStatements);
  for (TunerNode* node : {cluster.a.get(), cluster.b.get()}) {
    const uint64_t start = node->router().HistoryStart(kTenant);
    const std::vector<IndexSet> part = node->router().History(kTenant);
    for (size_t i = 0; i < part.size(); ++i) {
      const uint64_t seq = start + i;
      if (seq >= slots.size()) {
        ADD_FAILURE() << "history entry beyond the workload: " << seq;
        continue;
      }
      if (slots[seq].has_value()) {
        EXPECT_EQ(*slots[seq], part[i]) << "overlap disagrees at " << seq;
      }
      slots[seq] = part[i];
    }
  }
  std::vector<IndexSet> history;
  for (size_t seq = 0; seq < slots.size(); ++seq) {
    if (!slots[seq].has_value()) {
      ADD_FAILURE() << "no node holds statement " << seq;
      return history;
    }
    history.push_back(*slots[seq]);
  }
  return history;
}

TEST(ClusterMigrationTest, LiveMigrationKeepsTrajectoryBitIdentical) {
  const std::vector<IndexSet>& reference = ReferenceTrajectory();
  ASSERT_EQ(reference.size(), kStatements);

  TwoNodeCluster cluster("live");
  const std::string source_id = cluster.Owner().node_id();
  const std::string target_id = cluster.Other().node_id();

  std::atomic<bool> failed{false};
  std::thread producer(
      [&] { RunWorkload(cluster.config, *cluster.env, &failed); });

  // Wait until the tenant is mid-workload with the statement-149 vote
  // still in its future, then hand it over via the admin RPC.
  ClusterClient admin(cluster.config);
  while (AnalyzedNow(admin) < kMigrateAfter && !failed.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_FALSE(failed.load());
  net::Request migrate;
  migrate.type = net::MsgType::kMigrate;
  migrate.target_node = target_id;
  auto resp = admin.Call(kTenant, std::move(migrate));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->kind, net::RespKind::kOk) << resp->message;

  producer.join();
  ASSERT_FALSE(failed.load());

  // The handoff moved residency: the target serves the tenant now, the
  // source keeps only the retired prefix of its history.
  TunerNode& source = source_id == "a" ? *cluster.a : *cluster.b;
  TunerNode& target = target_id == "a" ? *cluster.a : *cluster.b;
  EXPECT_FALSE(source.router().IsResident(kTenant));
  EXPECT_TRUE(target.router().IsResident(kTenant));
  EXPECT_GE(target.router().HistoryStart(kTenant), kMigrateAfter);
  EXPECT_EQ(target.router().analyzed(kTenant), kStatements);

  const std::vector<IndexSet> stitched = Stitch(cluster);
  ASSERT_EQ(stitched.size(), kStatements);
  for (size_t seq = 0; seq < kStatements; ++seq) {
    ASSERT_EQ(stitched[seq], reference[seq])
        << "trajectory diverged at statement " << seq;
  }
  cluster.Shutdown();
}

TEST(ClusterMigrationTest, FailedHandoffRevertsAndStaysConsistent) {
  const std::vector<IndexSet>& reference = ReferenceTrajectory();

  TwoNodeCluster cluster("revert");
  // A third node exists in the layout but never listens: a handoff to it
  // must fail at the transport and revert — the tenant keeps running at
  // the source as if nothing happened.
  ClusterConfig with_ghost = cluster.config;
  with_ghost.version = 3;
  with_ghost.nodes.push_back({"ghost", "127.0.0.1", 1});
  with_ghost.Normalize();
  cluster.a->InstallConfig(with_ghost);
  cluster.b->InstallConfig(with_ghost);
  // The ghost must not own the tenant, or traffic would route into the
  // void; if the hash picks it, pin the tenant to a real node first.
  if (OwnerOf(with_ghost, kTenant)->id == "ghost") {
    ClusterConfig pinned = with_ghost;
    pinned.version = 4;
    pinned.overrides[kTenant] = "a";
    cluster.a->InstallConfig(pinned);
    cluster.b->InstallConfig(pinned);
    with_ghost = pinned;
  }
  cluster.config = with_ghost;

  std::atomic<bool> failed{false};
  std::thread producer(
      [&] { RunWorkload(cluster.config, *cluster.env, &failed); });

  ClusterClient admin(cluster.config);
  while (AnalyzedNow(admin) < kMigrateAfter && !failed.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_FALSE(failed.load());
  net::Request migrate;
  migrate.type = net::MsgType::kMigrate;
  migrate.target_node = "ghost";
  auto resp = admin.Call(kTenant, std::move(migrate));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->kind, net::RespKind::kError) << resp->message;

  producer.join();
  ASSERT_FALSE(failed.load());

  // Migrating to a node outside the layout is rejected up front.
  net::Request bogus;
  bogus.type = net::MsgType::kMigrate;
  bogus.target_node = "never-heard-of-it";
  auto bogus_resp = admin.Call(kTenant, std::move(bogus));
  ASSERT_TRUE(bogus_resp.ok());
  EXPECT_EQ(bogus_resp->kind, net::RespKind::kError);

  const std::vector<IndexSet> stitched = Stitch(cluster);
  ASSERT_EQ(stitched.size(), kStatements);
  for (size_t seq = 0; seq < kStatements; ++seq) {
    ASSERT_EQ(stitched[seq], reference[seq])
        << "trajectory diverged at statement " << seq;
  }
  cluster.Shutdown();
}

TEST(ClusterConfigTest, RetiredQosSetConfigIsRefusedAndTenantServes) {
  // Older builds appended a tenant QoS trailer (count, tenant, weight and
  // three retired slots) after the overrides. This build has no QoS
  // classes, so a kSetConfig carrying one must be refused at the wire,
  // before anything is installed.
  TwoNodeCluster cluster("retired_qos");
  ClusterClient client(cluster.config);
  TunerNode& owner = cluster.Owner();
  const std::string owner_id = OwnerOf(cluster.config, kTenant)->id;
  ClusterConfig next = cluster.config;
  next.version = cluster.config.version + 1;
  persist::Encoder trailer;
  trailer.PutU32(1);
  trailer.PutString(kTenant);
  trailer.PutDouble(4.0);
  trailer.PutU64(0);
  trailer.PutDouble(0.0);
  trailer.PutDouble(0.0);
  net::Request set;
  set.type = net::MsgType::kSetConfig;
  set.config_blob = EncodeClusterConfig(next) + trailer.Release();
  auto set_resp = client.CallNode(owner_id, std::move(set));
  ASSERT_TRUE(set_resp.ok()) << set_resp.status().ToString();
  EXPECT_EQ(set_resp->kind, net::RespKind::kError);
  EXPECT_EQ(set_resp->code, StatusCode::kInvalidArgument);
  EXPECT_EQ(owner.Config().version, cluster.config.version)
      << "a refused config was installed";

  // The tenant is first admitted only now, under the config the node
  // kept: it must come up and analyze.
  const Workload& workload = cluster.env->Env(0).workload;
  constexpr size_t kSubmit = 10;
  for (size_t seq = 0; seq < kSubmit; ++seq) {
    net::Request req;
    req.type = net::MsgType::kSubmitAt;
    req.seq = seq;
    req.has_statement = true;
    req.statement = workload[seq];
    auto resp = client.Call(kTenant, std::move(req));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->kind, net::RespKind::kOk) << resp->message;
  }
  while (AnalyzedNow(client) < kSubmit) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::vector<IndexSet>& reference = ReferenceTrajectory();
  const std::vector<IndexSet> history = owner.router().History(kTenant);
  ASSERT_GE(history.size(), kSubmit);
  for (size_t i = 0; i < kSubmit; ++i) {
    EXPECT_EQ(history[i], reference[i]) << "statement " << i;
  }
  cluster.Shutdown();
}

// The fleet health plane against a live two-node cluster: every node's
// scrape parses and carries its progress, the merged fleet scrape carries
// node="..." labels with one header per family, and a trace id stamped
// by the client at submit time comes back out of kDumpTrace attached to
// the node-side spans (wire propagation end to end).
TEST(ClusterHealthTest, HealthScrapeAndTracePlane) {
  TwoNodeCluster cluster("health");
#ifndef WFIT_DISABLE_TRACING
  obs::SetTracingEnabled(true);
  obs::ClearTraceForTest();
#endif

  ClusterClient client(cluster.config);
  const Workload& workload = cluster.env->Env(0).workload;
  const uint64_t kTrace = 0x7ace1d0000000001ull;
  const size_t kSubmit = 10;
  for (size_t seq = 0; seq < kSubmit; ++seq) {
    net::Request req;
    req.type = net::MsgType::kSubmitAt;
    req.seq = seq;
    req.has_statement = true;
    req.statement = workload[seq];
    req.trace_id = kTrace + seq;
    auto resp = client.Call(kTenant, std::move(req));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->kind, net::RespKind::kOk) << resp->message;
  }
  while (AnalyzedNow(client) < kSubmit) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // One scrape per node, parsed: each acts on the current config and the
  // owner's progress shows in the service counters.
  FleetScrape fleet = client.ScrapeNodes();
  ASSERT_EQ(fleet.nodes.size(), 2u);
  EXPECT_TRUE(fleet.unreachable.empty());
  double analyzed = 0;
  for (const auto& [node_id, text] : fleet.nodes) {
    EXPECT_TRUE(node_id == "a" || node_id == "b") << node_id;
    const std::map<std::string, double> series = obs::ParseScrape(text);
    ASSERT_TRUE(series.count("wfit_node_config_version")) << node_id;
    EXPECT_EQ(series.at("wfit_node_config_version"),
              static_cast<double>(cluster.config.version));
    auto it = series.find("wfit_service_statements_analyzed_total");
    ASSERT_NE(it, series.end()) << node_id;
    analyzed += it->second;
  }
  EXPECT_GE(analyzed, static_cast<double>(kSubmit));

  // The merged scrape: per-node series under a single header per family.
  std::string scrape = client.ScrapeFleet();
  EXPECT_NE(scrape.find("wfit_node_config_version{node=\"a\"}"),
            std::string::npos);
  EXPECT_NE(scrape.find("wfit_node_config_version{node=\"b\"}"),
            std::string::npos);
  EXPECT_EQ(scrape.find("# HELP wfit_node_config_version"),
            scrape.rfind("# HELP wfit_node_config_version"));

#ifndef WFIT_DISABLE_TRACING
  // kDumpTrace: the client-stamped trace ids reappear on node-side spans
  // (the wire carried the context into the handler and the analysis).
  net::Request dump;
  dump.type = net::MsgType::kDumpTrace;
  auto resp = client.CallNode(cluster.config.nodes[0].id, std::move(dump));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->kind, net::RespKind::kOk);
  std::vector<obs::Span> spans = obs::ParseSpanLines(resp->text);
  size_t stamped = 0;
  for (const obs::Span& s : spans) {
    if (s.trace_id >= kTrace && s.trace_id < kTrace + kSubmit) ++stamped;
  }
  EXPECT_GE(stamped, kSubmit)
      << "client trace ids did not propagate into node spans ("
      << spans.size() << " spans collected)";
  obs::SetTracingEnabled(false);
  obs::ClearTraceForTest();
#endif
  cluster.Shutdown();
}

}  // namespace
}  // namespace wfit::cluster

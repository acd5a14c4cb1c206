// Placement: rendezvous hashing must be deterministic across observers,
// spread tenants roughly evenly, move only the affected tenants when
// membership changes, honor overrides, and round-trip through the config
// codec (redirects ship encoded configs).
#include "cluster/placement.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "persist/codec.h"

namespace wfit::cluster {
namespace {

ClusterConfig ThreeNodes() {
  ClusterConfig config;
  config.version = 7;
  config.nodes = {{"a", "10.0.0.1", 7601},
                  {"b", "10.0.0.2", 7601},
                  {"c", "10.0.0.3", 7601}};
  config.Normalize();
  return config;
}

TEST(PlacementTest, OwnerIsDeterministic) {
  ClusterConfig config = ThreeNodes();
  for (int t = 0; t < 50; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    const NodeInfo* first = OwnerOf(config, tenant);
    ASSERT_NE(first, nullptr);
    // Same answer every time, and independent of node declaration order.
    ClusterConfig shuffled = config;
    std::swap(shuffled.nodes[0], shuffled.nodes[2]);
    shuffled.Normalize();
    EXPECT_EQ(OwnerOf(shuffled, tenant)->id, first->id);
  }
}

TEST(PlacementTest, SpreadsTenantsAcrossNodes) {
  ClusterConfig config = ThreeNodes();
  std::map<std::string, int> per_node;
  const int kTenants = 600;
  for (int t = 0; t < kTenants; ++t) {
    per_node[OwnerOf(config, "tenant-" + std::to_string(t))->id]++;
  }
  EXPECT_EQ(per_node.size(), 3u);
  for (const auto& [id, count] : per_node) {
    // Even-ish split: each node within a factor of 2 of fair share.
    EXPECT_GT(count, kTenants / 6) << id;
    EXPECT_LT(count, kTenants / 3 * 2) << id;
  }
}

TEST(PlacementTest, NodeRemovalOnlyMovesItsTenants) {
  ClusterConfig three = ThreeNodes();
  ClusterConfig two = three;
  two.nodes.erase(two.nodes.begin() + 1);  // drop "b"
  int moved_from_survivors = 0;
  for (int t = 0; t < 400; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    const std::string before = OwnerOf(three, tenant)->id;
    const std::string after = OwnerOf(two, tenant)->id;
    if (before == "b") {
      EXPECT_NE(after, "b");  // b's tenants must land elsewhere
    } else if (before != after) {
      ++moved_from_survivors;  // rendezvous guarantees this is zero
    }
  }
  EXPECT_EQ(moved_from_survivors, 0);
}

TEST(PlacementTest, OverridesBeatTheHash) {
  ClusterConfig config = ThreeNodes();
  // Find a tenant NOT hashed to "c", then pin it there.
  std::string tenant;
  for (int t = 0;; ++t) {
    tenant = "tenant-" + std::to_string(t);
    if (OwnerOf(config, tenant)->id != "c") break;
  }
  config.overrides[tenant] = "c";
  EXPECT_EQ(OwnerOf(config, tenant)->id, "c");
  // An override naming an unknown node falls back to the hash instead of
  // stranding the tenant.
  config.overrides[tenant] = "never-joined";
  EXPECT_NE(OwnerOf(config, tenant), nullptr);
  EXPECT_NE(OwnerOf(config, tenant)->id, "never-joined");
}

TEST(PlacementTest, EmptyConfigHasNoOwner) {
  ClusterConfig config;
  EXPECT_EQ(OwnerOf(config, "tenant-0"), nullptr);
}

TEST(PlacementTest, ConfigCodecRoundTrips) {
  ClusterConfig config = ThreeNodes();
  config.overrides["tenant-9"] = "a";
  config.overrides["tenant with spaces / slashes"] = "b";
  ClusterConfig decoded;
  ASSERT_TRUE(
      DecodeClusterConfig(EncodeClusterConfig(config), &decoded).ok());
  EXPECT_EQ(decoded.version, config.version);
  ASSERT_EQ(decoded.nodes.size(), config.nodes.size());
  for (size_t i = 0; i < config.nodes.size(); ++i) {
    EXPECT_EQ(decoded.nodes[i].id, config.nodes[i].id);
    EXPECT_EQ(decoded.nodes[i].host, config.nodes[i].host);
    EXPECT_EQ(decoded.nodes[i].port, config.nodes[i].port);
  }
  EXPECT_EQ(decoded.overrides, config.overrides);
}

TEST(PlacementTest, ConfigCodecRejectsTruncation) {
  std::string blob = EncodeClusterConfig(ThreeNodes());
  for (size_t cut : {size_t{0}, blob.size() / 2, blob.size() - 1}) {
    ClusterConfig decoded;
    EXPECT_FALSE(
        DecodeClusterConfig(std::string_view(blob).substr(0, cut), &decoded)
            .ok())
        << "cut at " << cut;
  }
}

TEST(PlacementTest, ConfigCodecRejectsOutOfRangeQos) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<service::TenantQos> hostile = {
      {.weight = 0.0},          {.weight = -1.0},
      {.weight = inf},          {.weight = nan},
      {.weight = 1e6 * 1.5},    {.sample_floor = 2.0},
      {.sample_floor = -0.5},   {.sample_floor = nan},
  };
  for (size_t i = 0; i < hostile.size(); ++i) {
    ClusterConfig config = ThreeNodes();
    config.tenant_qos["tenant-1"] = hostile[i];
    ClusterConfig decoded;
    Status st = DecodeClusterConfig(EncodeClusterConfig(config), &decoded);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "case " << i;
  }
  // The boundaries themselves are legal.
  ClusterConfig config = ThreeNodes();
  config.tenant_qos["tenant-1"] = {.weight = 1e6, .sample_floor = 1.0};
  config.tenant_qos["tenant-2"] = {.weight = 1e-3, .sample_floor = 0.0};
  ClusterConfig decoded;
  ASSERT_TRUE(
      DecodeClusterConfig(EncodeClusterConfig(config), &decoded).ok());
  EXPECT_EQ(decoded.tenant_qos.size(), 2u);
}

/// ThreeNodes() plus one QoS entry in the QoS trailer's layout, with the
/// two retired slots (a u64 and a double) set to the given values — what
/// an older writer emitted for a tenant with a byte and latency budget.
std::string QosTrailerBlob(uint64_t retired_u64, double retired_double) {
  persist::Encoder e;
  e.PutU64(7);
  e.PutU32(3);
  const std::pair<const char*, const char*> nodes[] = {
      {"a", "10.0.0.1"}, {"b", "10.0.0.2"}, {"c", "10.0.0.3"}};
  for (const auto& [id, host] : nodes) {
    e.PutString(id);
    e.PutString(host);
    e.PutU32(7601);
  }
  e.PutU32(0);  // no overrides
  e.PutU32(1);
  e.PutString("tenant-1");
  e.PutDouble(2.5);
  e.PutU64(retired_u64);
  e.PutDouble(retired_double);
  e.PutDouble(0.5);
  return e.Release();
}

TEST(PlacementTest, ConfigCodecDropsRetiredQosSlots) {
  // The encoder writes zeros into the retired slots, so its bytes match
  // the older layout for every config the QoS struct can still express.
  ClusterConfig config = ThreeNodes();
  config.tenant_qos["tenant-1"] = {.weight = 2.5, .sample_floor = 0.5};
  EXPECT_EQ(EncodeClusterConfig(config), QosTrailerBlob(0, 0.0));
  // An older blob with non-zero retired slots decodes; the slots are
  // discarded and re-encode as zeros.
  ClusterConfig decoded;
  ASSERT_TRUE(DecodeClusterConfig(QosTrailerBlob(4096, 25.0), &decoded).ok());
  ASSERT_EQ(decoded.tenant_qos.size(), 1u);
  EXPECT_EQ(decoded.tenant_qos.at("tenant-1").weight, 2.5);
  EXPECT_EQ(decoded.tenant_qos.at("tenant-1").sample_floor, 0.5);
  EXPECT_EQ(EncodeClusterConfig(decoded), QosTrailerBlob(0, 0.0));
}

TEST(PlacementTest, ParsesNodeListSpec) {
  auto config = ParseNodeList("b=127.0.0.1:7602,a=localhost:7601");
  ASSERT_TRUE(config.ok());
  ASSERT_EQ(config->nodes.size(), 2u);
  EXPECT_EQ(config->nodes[0].id, "a");  // normalized order
  EXPECT_EQ(config->nodes[0].host, "localhost");
  EXPECT_EQ(config->nodes[0].port, 7601);
  EXPECT_EQ(config->nodes[1].id, "b");

  EXPECT_FALSE(ParseNodeList("").ok());
  EXPECT_FALSE(ParseNodeList("a=hostonly").ok());
  EXPECT_FALSE(ParseNodeList("a=h:99999").ok());
  EXPECT_FALSE(ParseNodeList("a=h:1,a=h:2").ok());
}

}  // namespace
}  // namespace wfit::cluster

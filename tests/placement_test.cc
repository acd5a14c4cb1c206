// Placement: rendezvous hashing must be deterministic across observers,
// spread tenants roughly evenly, move only the affected tenants when
// membership changes, honor overrides, and round-trip through the config
// codec (redirects ship encoded configs).
#include "cluster/placement.h"

#include <gtest/gtest.h>

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

/// ThreeNodes() in the layout older builds wrote for a config carrying a
/// tenant QoS class: the overrides, then a trailer of (count, tenant,
/// weight, three retired slots). Tenant QoS classes no longer exist.
std::string RetiredQosTrailerBlob() {
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
  e.PutU32(1);  // one QoS entry
  e.PutString("tenant-1");
  e.PutDouble(2.5);
  e.PutU64(0);
  e.PutDouble(0.0);
  e.PutDouble(0.0);
  return e.Release();
}

TEST(PlacementTest, ConfigCodecRefusesRetiredQosTrailer) {
  // Everything before the trailer is exactly what this build writes, so
  // only the trailer can be the reason for the refusal.
  const std::string blob = RetiredQosTrailerBlob();
  const std::string current = EncodeClusterConfig(ThreeNodes());
  ASSERT_LT(current.size(), blob.size());
  ASSERT_EQ(blob.compare(0, current.size(), current), 0);
  ClusterConfig decoded;
  Status st = DecodeClusterConfig(blob, &decoded);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("trailing bytes"), std::string::npos)
      << st.message();
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

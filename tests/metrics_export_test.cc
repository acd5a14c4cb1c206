// ServiceMetrics / router Prometheus text output against the exposition
// format grammar: sample-line syntax, HELP/TYPE headers preceding every
// family, label-value escaping, histogram bucket consistency, and counter
// monotonicity across successive scrapes (including across an eviction +
// re-admission cycle, where per-tenant counters merge incarnations).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/wfit.h"
#include "obs/health.h"
#include "service/metrics.h"
#include "service/tenant_router.h"
#include "tests/test_util.h"

namespace wfit::service {
namespace {

using wfit::testing::TestDb;

// --- A small exposition-format checker ----------------------------------

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_' ||
        name[0] == ':')) {
    return false;
  }
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == ':')) {
      return false;
    }
  }
  return true;
}

bool ValidLabelName(const std::string& name) {
  if (name.empty() || std::isdigit(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  return true;
}

struct Sample {
  std::string name;    // metric name (with _bucket/_sum/_count suffix)
  std::string series;  // name + canonical label string
  double value = 0.0;
  std::map<std::string, std::string> labels;
};

/// Parses one exposition line `name[{labels}] value`; returns false (with
/// a reason) on any grammar violation.
bool ParseSample(const std::string& line, Sample* out, std::string* why) {
  size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  out->name = line.substr(0, i);
  if (!ValidMetricName(out->name)) {
    *why = "bad metric name: " + line;
    return false;
  }
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      size_t eq = line.find('=', i);
      if (eq == std::string::npos) {
        *why = "label without '=': " + line;
        return false;
      }
      std::string label = line.substr(i, eq - i);
      if (!ValidLabelName(label)) {
        *why = "bad label name '" + label + "': " + line;
        return false;
      }
      if (eq + 1 >= line.size() || line[eq + 1] != '"') {
        *why = "unquoted label value: " + line;
        return false;
      }
      // Scan the quoted value honoring escapes; only \\, \" and \n are
      // legal, and raw quotes/newlines must not appear.
      std::string value;
      size_t j = eq + 2;
      for (; j < line.size() && line[j] != '"'; ++j) {
        if (line[j] == '\\') {
          if (j + 1 >= line.size() ||
              (line[j + 1] != '\\' && line[j + 1] != '"' &&
               line[j + 1] != 'n')) {
            *why = "bad escape in label value: " + line;
            return false;
          }
          value += line[j + 1];
          ++j;
        } else {
          value += line[j];
        }
      }
      if (j >= line.size()) {
        *why = "unterminated label value: " + line;
        return false;
      }
      out->labels[label] = value;
      i = j + 1;
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size() || line[i] != '}') {
      *why = "unterminated label set: " + line;
      return false;
    }
    ++i;
  }
  if (i >= line.size() || line[i] != ' ') {
    *why = "missing value separator: " + line;
    return false;
  }
  std::string value_token = line.substr(i + 1);
  if (value_token.empty() || value_token.find(' ') != std::string::npos) {
    *why = "malformed value token: " + line;
    return false;
  }
  if (value_token == "+Inf") {
    out->value = std::numeric_limits<double>::infinity();
  } else {
    char* end = nullptr;
    out->value = std::strtod(value_token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      *why = "non-numeric value: " + line;
      return false;
    }
  }
  out->series = line.substr(0, i);
  return true;
}

struct Exposition {
  std::map<std::string, std::string> types;  // family -> counter|gauge|...
  std::vector<Sample> samples;
  std::map<std::string, double> series;  // series string -> value
};

/// Full-grammar walk of an exported page. Fails the current test on any
/// violation (void so ASSERT_* is usable; results via the out param).
void ValidateExposition(const std::string& text,
                        Exposition* out = nullptr) {
  Exposition exposition;
  std::set<std::string> helped;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0) {
      std::istringstream h(line.substr(7));
      std::string family;
      h >> family;
      ASSERT_TRUE(ValidMetricName(family)) << line;
      ASSERT_TRUE(helped.insert(family).second)
          << "duplicate HELP for " << family;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream t(line.substr(7));
      std::string family, type;
      t >> family >> type;
      ASSERT_TRUE(ValidMetricName(family)) << line;
      ASSERT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram" || type == "summary" ||
                  type == "untyped")
          << line;
      ASSERT_TRUE(helped.count(family)) << "TYPE before HELP: " << line;
      ASSERT_TRUE(exposition.types.emplace(family, type).second)
          << "duplicate TYPE for " << family;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment form: " << line;
    Sample sample;
    std::string why;
    ASSERT_TRUE(ParseSample(line, &sample, &why)) << why;
    // Find the family: the name itself, or (for histograms) the name with
    // a _bucket/_sum/_count suffix stripped.
    std::string family = sample.name;
    if (exposition.types.find(family) == exposition.types.end()) {
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        std::string s(suffix);
        if (family.size() > s.size() &&
            family.compare(family.size() - s.size(), s.size(), s) == 0) {
          std::string stripped = family.substr(0, family.size() - s.size());
          auto it = exposition.types.find(stripped);
          if (it != exposition.types.end() && it->second == "histogram") {
            family = stripped;
            break;
          }
        }
      }
    }
    auto type = exposition.types.find(family);
    ASSERT_NE(type, exposition.types.end())
        << "sample without TYPE header: " << line;
    if (type->second == "counter") {
      ASSERT_GE(sample.value, 0.0) << "negative counter: " << line;
    }
    ASSERT_TRUE(
        exposition.series.emplace(sample.series, sample.value).second)
        << "duplicate series: " << sample.series;
    exposition.samples.push_back(std::move(sample));
  }
  // Histogram internal consistency: cumulative buckets non-decreasing,
  // +Inf bucket equals _count, per label subset (tenant).
  for (const auto& [family, type] : exposition.types) {
    if (type != "histogram") continue;
    std::map<std::string, std::pair<double, double>> last_and_inf;
    for (const Sample& s : exposition.samples) {
      if (s.name != family + "_bucket") continue;
      std::string key;
      for (const auto& [k, v] : s.labels) {
        if (k != "le") key += k + "=" + v + ";";
      }
      auto& [last, inf] = last_and_inf[key];
      ASSERT_GE(s.value, last) << "non-monotone buckets in " << family;
      last = s.value;
      if (s.labels.at("le") == "+Inf") inf = s.value;
    }
    for (const Sample& s : exposition.samples) {
      if (s.name != family + "_count") continue;
      std::string key;
      for (const auto& [k, v] : s.labels) key += k + "=" + v + ";";
      ASSERT_EQ(s.value, last_and_inf[key].second)
          << family << "_count != +Inf bucket";
    }
  }
  if (out != nullptr) *out = std::move(exposition);
}

WfitOptions FastOptions() {
  WfitOptions options;
  options.candidates.idx_cnt = 8;
  options.candidates.state_cnt = 64;
  options.candidates.hist_size = 50;
  options.candidates.creation_penalty_factor = 1e-6;
  return options;
}

Workload BuildWorkload(TestDb& db, size_t n) {
  const char* shapes[] = {
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 150",
      "SELECT count(*) FROM t2 WHERE x BETWEEN 10 AND 40",
      "UPDATE t1 SET d = 1 WHERE a = 77",
      "SELECT count(*) FROM t3 WHERE v = 9",
  };
  Workload w;
  for (size_t i = 0; i < n; ++i) {
    w.push_back(db.Bind(shapes[i % (sizeof(shapes) / sizeof(shapes[0]))]));
  }
  return w;
}

TEST(MetricsExportTest, EscapeLabelValueHandlesSpecials) {
  EXPECT_EQ(obs::EscapeLabelValue("plain-id_1"), "plain-id_1");
  EXPECT_EQ(obs::EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::EscapeLabelValue("a\nb"), "a\\nb");
  EXPECT_EQ(obs::EscapeLabelValue("\\\"\n"), "\\\\\\\"\\n");
}

TEST(MetricsExportTest, ServiceExportMatchesExpositionGrammar) {
  TestDb db;
  Workload w = BuildWorkload(db, 24);
  TunerService service(
      std::make_unique<Wfit>(&db.pool(), &db.optimizer(), IndexSet{},
                             FastOptions()));
  service.Start();
  for (const Statement& q : w) ASSERT_TRUE(service.Submit(q));
  service.Shutdown();
  ValidateExposition(ExportText(service.Metrics()));
}

TEST(MetricsExportTest, TenantExportEscapesHostileIdsAndValidates) {
  // Tenant ids that attack the label syntax: quotes, backslashes,
  // newlines, braces, commas.
  MetricsSnapshot a;
  a.statements_analyzed = 3;
  a.latency_counts[0] = 3;
  MetricsSnapshot b;
  b.statements_analyzed = 5;
  b.latency_counts[2] = 5;
  std::vector<std::pair<std::string, MetricsSnapshot>> tenants = {
      {"evil\"quote", a},
      {"back\\slash,and{braces}", b},
      {"new\nline", a},
  };
  std::ostringstream os;
  ExportTenantText(tenants, os);
  std::string text = os.str();
  ValidateExposition(text);
  EXPECT_NE(text.find("wfit_tenant_stmts_total{tenant=\"evil\\\"quote\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find(
          "wfit_tenant_stmts_total{tenant=\"back\\\\slash,and{braces}\"} 5"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("new\\nline"), std::string::npos);
}

TEST(MetricsExportTest, StageHistogramsExportAndValidate) {
  ServiceMetrics metrics;
  // One sample per stage, spread across buckets (5 us, 100 us, 2 ms, 2 s).
  metrics.RecordStage(obs::Stage::kQueueWait, 5'000);
  metrics.RecordStage(obs::Stage::kIbgBuild, 100'000);
  metrics.RecordStage(obs::Stage::kProbe, 2'000'000);
  metrics.RecordStage(obs::Stage::kCheckpointWrite, 2'000'000'000);
  MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.stage_count(obs::Stage::kQueueWait), 1u);
  EXPECT_NEAR(snapshot.stage_mean_us(obs::Stage::kProbe), 2000.0, 1.0);

  std::string text = ExportText(snapshot);
  Exposition exposition;
  ValidateExposition(text, &exposition);
  ASSERT_EQ(exposition.types.count("wfit_service_stage_latency_us"), 1u);
  EXPECT_EQ(exposition.types.at("wfit_service_stage_latency_us"),
            "histogram");
  // Every stage appears as its own labelled series with a +Inf bucket.
  for (const char* stage :
       {"queue_wait", "ibg_build", "probe", "checkpoint_write"}) {
    EXPECT_NE(
        text.find("wfit_service_stage_latency_us_bucket{stage=\"" +
                  std::string(stage) + "\",le=\"+Inf\"} 1"),
        std::string::npos)
        << "missing stage series " << stage << " in:\n" << text;
  }

  // The per-tenant exporter carries the same families with tenant labels.
  std::ostringstream os;
  ExportTenantText({{"t0", snapshot}}, os);
  std::string tenant_text = os.str();
  ValidateExposition(tenant_text);
  EXPECT_NE(tenant_text.find(
                "wfit_tenant_stage_latency_us_bucket{tenant=\"t0\","
                "stage=\"queue_wait\""),
            std::string::npos)
      << tenant_text;
}

TEST(MetricsExportTest, QuantilesReadBucketUpperBounds) {
  const double inf = std::numeric_limits<double>::infinity();
  MetricsSnapshot s;
  EXPECT_EQ(s.LatencyQuantileUpperUs(0.5), 0.0);  // empty
  // Three samples in the first bucket (<= 10 us), one past the last bound.
  s.latency_counts[0] = 3;
  s.latency_counts[kLatencyBucketCount - 1] = 1;
  EXPECT_EQ(s.LatencyQuantileUpperUs(0.0), 10.0);
  EXPECT_EQ(s.LatencyQuantileUpperUs(-2.0), 10.0);  // clamped to 0
  EXPECT_EQ(s.LatencyQuantileUpperUs(0.75), 10.0);
  EXPECT_EQ(s.LatencyQuantileUpperUs(0.76), inf);
  EXPECT_EQ(s.LatencyQuantileUpperUs(1.0), inf);
  EXPECT_EQ(s.LatencyQuantileUpperUs(7.0), inf);  // clamped to 1

  // Stage histograms share the bucketing: 5 us, 100 us and 2 s land in
  // the first, the 250 us and the +inf bucket.
  ServiceMetrics metrics;
  metrics.RecordStage(obs::Stage::kQueueWait, 5'000);
  metrics.RecordStage(obs::Stage::kQueueWait, 100'000);
  metrics.RecordStage(obs::Stage::kQueueWait, 2'000'000'000);
  MetricsSnapshot stages = metrics.Snapshot();
  EXPECT_EQ(stages.StageQuantileUpperUs(obs::Stage::kProbe, 0.5), 0.0);
  EXPECT_EQ(stages.StageQuantileUpperUs(obs::Stage::kQueueWait, -1.0), 10.0);
  EXPECT_EQ(stages.StageQuantileUpperUs(obs::Stage::kQueueWait, 0.5), 250.0);
  EXPECT_EQ(stages.StageQuantileUpperUs(obs::Stage::kQueueWait, 0.99), inf);
  EXPECT_EQ(stages.StageQuantileUpperUs(obs::Stage::kQueueWait, 2.0), inf);
}

TEST(MetricsExportTest, ProbeStageCountsEveryOptimizerCall) {
  TestDb db;
  Workload w = BuildWorkload(db, 24);
  TunerService service(
      std::make_unique<Wfit>(&db.pool(), &db.optimizer(), IndexSet{},
                             FastOptions()));
  service.Start();
  db.optimizer().ResetCallCount();
  for (const Statement& q : w) ASSERT_TRUE(service.Submit(q));
  service.Shutdown();
  const uint64_t calls = db.optimizer().num_calls();
  ASSERT_GT(calls, w.size());
  EXPECT_EQ(service.Metrics().stage_count(obs::Stage::kProbe), calls);
  EXPECT_NE(ExportText(service.Metrics())
                .find("wfit_service_stage_latency_us_count{stage=\"probe\"} " +
                      std::to_string(calls)),
            std::string::npos);
}

TEST(MetricsExportTest, CountersAreMonotoneAcrossScrapesAndEviction) {
  TestDb db;
  Workload w = BuildWorkload(db, 30);
  auto factory = [&db](const std::string&) {
    TenantTuner made;
    made.tuner = std::make_unique<Wfit>(&db.pool(), &db.optimizer(),
                                        IndexSet{}, FastOptions());
    made.pool = &db.pool();
    return made;
  };
  namespace fs = std::filesystem;
  TenantRouterOptions options;
  options.shard.queue_capacity = 64;
  options.checkpoint_root =
      (fs::path(::testing::TempDir()) / "wfit_metrics_monotone").string();
  fs::remove_all(options.checkpoint_root);
  options.drain_threads = 0;
  TenantRouter router(factory, options);
  router.Start();

  auto scrape = [&] {
    std::string text = router.ExportText();
    Exposition e;
    // Re-validate and harvest the counter series.
    ValidateExposition(text);
    std::istringstream is(text);
    std::string line, type;
    std::map<std::string, std::string> types;
    std::map<std::string, double> counters;
    while (std::getline(is, line)) {
      if (line.rfind("# TYPE ", 0) == 0) {
        std::istringstream t(line.substr(7));
        std::string family;
        t >> family >> type;
        types[family] = type;
        continue;
      }
      if (line[0] == '#') continue;
      Sample s;
      std::string why;
      if (!ParseSample(line, &s, &why)) {
        ADD_FAILURE() << why;
        continue;
      }
      auto it = types.find(s.name);
      if (it != types.end() && it->second == "counter") {
        counters[s.series] = s.value;
      }
    }
    return counters;
  };

  std::vector<std::map<std::string, double>> scrapes;
  auto run = [&](size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      ASSERT_TRUE(router.Submit("only", w[i]));
    }
    while (!router.DrainOne().empty()) {
    }
  };
  run(0, 10);
  scrapes.push_back(scrape());
  run(10, 20);
  scrapes.push_back(scrape());
  // Evict + re-admit: merged per-tenant counters must not step backwards.
  ASSERT_TRUE(router.Evict("only"));
  scrapes.push_back(scrape());
  run(20, 30);
  scrapes.push_back(scrape());
  router.Shutdown();
  scrapes.push_back(scrape());

  for (size_t i = 1; i < scrapes.size(); ++i) {
    for (const auto& [series, value] : scrapes[i - 1]) {
      auto it = scrapes[i].find(series);
      ASSERT_NE(it, scrapes[i].end())
          << "counter series vanished: " << series;
      EXPECT_GE(it->second, value)
          << "counter went backwards between scrapes " << (i - 1) << " and "
          << i << ": " << series;
    }
  }
  // And the statement counter really advanced.
  EXPECT_EQ(scrapes.back().at("wfit_tenant_stmts_total{tenant=\"only\"}"),
            30.0);
}

TEST(MetricsExportTest, RouterExportValidatesWithMultipleTenants) {
  TestDb db;
  Workload w = BuildWorkload(db, 8);
  auto factory = [&db](const std::string&) {
    TenantTuner made;
    made.tuner = std::make_unique<Wfit>(&db.pool(), &db.optimizer(),
                                        IndexSet{}, FastOptions());
    return made;
  };
  TenantRouterOptions options;
  options.drain_threads = 0;
  TenantRouter router(factory, options);
  router.Start();
  for (const Statement& q : w) {
    ASSERT_TRUE(router.Submit("alpha", q));
    ASSERT_TRUE(router.Submit("beta", q));
  }
  while (!router.DrainOne().empty()) {
  }
  router.Shutdown();
  ValidateExposition(router.ExportText());
}

}  // namespace
}  // namespace wfit::service

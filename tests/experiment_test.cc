#include "harness/experiment.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/wfa_plus.h"
#include "harness/reporting.h"
#include "tests/test_util.h"

namespace wfit {
namespace {

using testing::TestDb;
using harness::ExperimentDriver;
using harness::ExperimentOptions;
using harness::ExperimentSeries;

/// A scripted tuner: recommends a fixed schedule regardless of input.
class ScriptedTuner : public Tuner {
 public:
  explicit ScriptedTuner(std::vector<IndexSet> script)
      : script_(std::move(script)) {}

  void AnalyzeQuery(const Statement&) override { ++analyzed_; }
  IndexSet Recommendation() const override {
    if (analyzed_ == 0 || script_.empty()) return IndexSet{};
    size_t i = std::min(analyzed_ - 1, script_.size() - 1);
    return script_[i];
  }
  void Feedback(const IndexSet& f_plus, const IndexSet& f_minus) override {
    feedback_log_.push_back({f_plus, f_minus});
  }
  std::string name() const override { return "scripted"; }

  size_t analyzed_ = 0;
  std::vector<IndexSet> script_;
  std::vector<std::pair<IndexSet, IndexSet>> feedback_log_;
};

TEST(TotalWorkMeterTest, AccumulatesTransitionsAndQueryCosts) {
  TestDb db;
  IndexId ia = db.Ix("t1", {"a"});
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a = 5");
  TotalWorkMeter meter(&db.optimizer(), IndexSet{});
  double step1 = meter.Step(q, IndexSet{ia});
  double expected1 =
      db.model().CreateCost(ia) + db.optimizer().Cost(q, IndexSet{ia});
  EXPECT_NEAR(step1, expected1, 1e-9);
  double step2 = meter.Step(q, IndexSet{ia});  // no transition now
  EXPECT_NEAR(step2, db.optimizer().Cost(q, IndexSet{ia}), 1e-9);
  EXPECT_NEAR(meter.total(), step1 + step2, 1e-9);
  EXPECT_EQ(meter.cumulative().size(), 2u);
  EXPECT_NEAR(meter.transition_total(), db.model().CreateCost(ia), 1e-9);
}

TEST(ExperimentDriverTest, TotalMatchesManualAccounting) {
  TestDb db;
  IndexId ia = db.Ix("t1", {"a"});
  Workload w;
  for (int i = 0; i < 6; ++i) {
    w.push_back(db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 99"));
  }
  std::vector<IndexSet> script(6, IndexSet{ia});
  ScriptedTuner tuner(script);
  ExperimentDriver driver(&w, &db.optimizer());
  ExperimentSeries series = driver.Run(&tuner, IndexSet{}, {});

  TotalWorkMeter meter(&db.optimizer(), IndexSet{});
  for (const Statement& q : w) meter.Step(q, IndexSet{ia});
  EXPECT_NEAR(series.final_total, meter.total(), 1e-9);
  EXPECT_EQ(tuner.analyzed_, 6u);
}

TEST(ExperimentDriverTest, CheckpointsAtRequestedInterval) {
  TestDb db;
  Workload w;
  for (int i = 0; i < 10; ++i) {
    w.push_back(db.Bind("SELECT count(*) FROM t3 WHERE v = 1"));
  }
  ScriptedTuner tuner({});
  ExperimentDriver driver(&w, &db.optimizer());
  ExperimentOptions options;
  options.checkpoint_every = 4;
  ExperimentSeries series = driver.Run(&tuner, IndexSet{}, {}, options);
  ASSERT_EQ(series.checkpoints.size(), 3u);  // 4, 8, 10(final)
  EXPECT_EQ(series.checkpoints[0], 4u);
  EXPECT_EQ(series.checkpoints[1], 8u);
  EXPECT_EQ(series.checkpoints[2], 10u);
  EXPECT_DOUBLE_EQ(series.total_at_checkpoint.back(), series.final_total);
}

TEST(ExperimentDriverTest, FeedbackDeliveredAtRightPositions) {
  TestDb db;
  Workload w;
  for (int i = 0; i < 4; ++i) {
    w.push_back(db.Bind("SELECT count(*) FROM t3 WHERE v = 1"));
  }
  std::vector<FeedbackEvent> events(2);
  events[0].after_statement = -1;
  events[0].f_plus = IndexSet{7};
  events[1].after_statement = 2;
  events[1].f_minus = IndexSet{7};
  ScriptedTuner tuner({});
  ExperimentDriver driver(&w, &db.optimizer());
  driver.Run(&tuner, IndexSet{}, events);
  ASSERT_EQ(tuner.feedback_log_.size(), 2u);
  EXPECT_EQ(tuner.feedback_log_[0].first, IndexSet{7});
  EXPECT_EQ(tuner.feedback_log_[1].second, IndexSet{7});
}

TEST(ExperimentDriverTest, LagDelaysMaterialization) {
  TestDb db;
  IndexId ia = db.Ix("t1", {"a"});
  Workload w;
  for (int i = 0; i < 6; ++i) {
    w.push_back(db.Bind("SELECT count(*) FROM t1 WHERE a = 5"));
  }
  // The scripted tuner wants the index from statement 1 onwards.
  std::vector<IndexSet> script = {IndexSet{}, IndexSet{ia}, IndexSet{ia},
                                  IndexSet{ia}, IndexSet{ia}, IndexSet{ia}};
  ExperimentDriver driver(&w, &db.optimizer());

  ScriptedTuner eager(script);
  double total_lag1 = driver.Run(&eager, IndexSet{}, {}).final_total;

  ScriptedTuner lagged(script);
  ExperimentOptions lag3;
  lag3.lag = 3;
  double total_lag3 = driver.Run(&lagged, IndexSet{}, {}, lag3).final_total;
  // Accept points are statements 0 and 3: the index reaches the physical
  // config only at statement 3, so three statements run unindexed.
  EXPECT_GT(total_lag3, total_lag1);
  // Implicit votes were cast when accepting the change at statement 3.
  ASSERT_EQ(lagged.feedback_log_.size(), 1u);
  EXPECT_EQ(lagged.feedback_log_[0].first, IndexSet{ia});
}

TEST(ExperimentDriverTest, WhatIfCallsAttributedToTuner) {
  TestDb db;
  IndexSet part{db.Ix("t1", {"a"})};
  Workload w;
  for (int i = 0; i < 5; ++i) {
    w.push_back(db.Bind("SELECT count(*) FROM t1 WHERE a = 5"));
  }
  WfaPlus tuner(&db.pool(), &db.optimizer(), {part}, IndexSet{});
  ExperimentDriver driver(&w, &db.optimizer());
  ExperimentSeries series = driver.Run(&tuner, IndexSet{}, {});
  // Every statement builds one IBG (>= 1 optimizer call each). The meter's
  // own calls must not be attributed to the tuner (meter adds 1 per
  // statement).
  EXPECT_GE(series.what_if_calls, 5u);
  EXPECT_LT(series.what_if_calls, db.optimizer().num_calls());
}

TEST(ReportingTest, RatioTableRendersAllSeries) {
  ExperimentSeries opt;
  opt.name = "OPT";
  opt.checkpoints = {100, 200};
  opt.total_at_checkpoint = {50.0, 90.0};
  ExperimentSeries algo;
  algo.name = "WFIT";
  algo.checkpoints = {100, 200};
  algo.total_at_checkpoint = {100.0, 100.0};
  std::ostringstream os;
  harness::PrintRatioTable(os, opt, {algo}, "test");
  std::string out = os.str();
  EXPECT_NE(out.find("WFIT"), std::string::npos);
  EXPECT_NE(out.find("0.5000"), std::string::npos);
  EXPECT_NE(out.find("0.9000"), std::string::npos);

  std::ostringstream csv;
  harness::WriteRatioCsv(csv, opt, {algo});
  EXPECT_NE(csv.str().find("query,WFIT"), std::string::npos);
  EXPECT_NE(csv.str().find("100,0.5"), std::string::npos);
}

TEST(ReportingTest, OverheadTable) {
  ExperimentSeries s;
  s.name = "WFIT";
  s.analyze_seconds = 1.0;
  s.what_if_calls = 500;
  std::ostringstream os;
  harness::PrintOverheadTable(os, {s}, 100);
  EXPECT_NE(os.str().find("10.000"), std::string::npos);  // ms/statement
  EXPECT_NE(os.str().find("5.0"), std::string::npos);     // calls/stmt
}

}  // namespace
}  // namespace wfit

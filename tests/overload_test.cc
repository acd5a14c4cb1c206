// The adaptive overload controller's contract: deterministic three-state
// degradation and recovery driven by queue fill (Normal → Shedding →
// Sampling with hysteresis), duplicate-template shedding that never drops
// novel evidence, seeded uniform sampling whose decisions — and the
// 1/rate "honest sampling" benefit rescale — replay bit-identically after
// a crash mid-Sampling, from the epoch journal alone or from a snapshot
// carrying the controller state.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/wfit.h"
#include "service/tuner_service.h"
#include "tests/test_util.h"

namespace wfit::service {
namespace {

namespace fs = std::filesystem;
using wfit::testing::TestDb;

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
      "SELECT count(*) FROM t1 WHERE b BETWEEN 100 AND 220",
      "SELECT count(*) FROM t1, t2 WHERE t1.k = t2.fk AND t1.a = 5",
      "SELECT count(*) FROM t2 WHERE x BETWEEN 10 AND 40",
      "UPDATE t1 SET d = 1 WHERE a = 77",
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 150 AND c = 3",
      "SELECT count(*) FROM t3 WHERE v = 9",
      "UPDATE t2 SET y = 2 WHERE x = 17",
  };
  Workload w;
  for (size_t i = 0; i < n; ++i) {
    w.push_back(db.Bind(shapes[i % (sizeof(shapes) / sizeof(shapes[0]))]));
  }
  return w;
}

std::unique_ptr<Tuner> MakeTuner(TestDb& db) {
  return std::make_unique<Wfit>(&db.pool(), &db.optimizer(), IndexSet{},
                                FastOptions());
}

std::string FreshDir(const std::string& name) {
  std::string dir =
      (fs::path(::testing::TempDir()) /
       ("wfit_overload_" + name + "_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  return dir;
}

TEST(OverloadTest, ControllerDegradesAndRecoversWithHysteresis) {
  TestDb db;
  Workload w = BuildWorkload(db, 8);
  TunerServiceOptions options;
  options.queue_capacity = 8;
  options.max_batch = 1;
  options.record_history = true;
  options.overload.enabled = true;
  options.overload.high_watermark = 0.75;
  options.overload.low_watermark = 0.25;
  options.overload.sample_floor = 0.25;
  options.overload.sample_seed = 7;
  TunerService service(MakeTuner(db), options);
  service.Start();

  for (size_t i = 0; i < 8; ++i) ASSERT_TRUE(service.SubmitAt(i, w[i]));

  // One statement per batch, controller evaluated on the post-pop fill:
  // fills run 7/8, 6/8, ..., 0. The walk is Normal -> Shedding (.875) ->
  // Sampling at 0.5 (.75) -> steady -> recover to rate 1.0 = Shedding
  // (.25) -> Normal (.125): four journaled transitions, full round trip.
  struct Step {
    uint64_t mode;
    double rate;
  };
  const std::vector<Step> expected = {
      {1, 1.0}, {2, 0.5}, {2, 0.5}, {2, 0.5},
      {2, 0.5}, {1, 1.0}, {0, 1.0}, {0, 1.0},
  };
  for (const Step& step : expected) {
    ASSERT_EQ(service.ProcessBatch(), 1u);
    MetricsSnapshot m = service.Metrics();
    EXPECT_EQ(m.overload_mode, step.mode);
    EXPECT_DOUBLE_EQ(m.sample_rate, step.rate);
  }
  EXPECT_EQ(service.ProcessBatch(), 0u);

  MetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.overload_transitions, 4u);
  EXPECT_EQ(m.overload_mode, 0u);
  EXPECT_DOUBLE_EQ(m.sample_rate, 1.0);
  // Dropped or kept, every statement is marked analyzed and published —
  // sequence contiguity and the exactly-once contract are overload-proof.
  EXPECT_TRUE(service.WaitUntilAnalyzed(8));
  service.Shutdown();
  EXPECT_EQ(service.History().size(), 8u);
}

TEST(OverloadTest, SheddingDropsOnlyDuplicateTemplates) {
  TestDb db;
  Statement unique = db.Bind("SELECT count(*) FROM t3 WHERE v = 9");
  Statement dup = db.Bind("SELECT count(*) FROM t3 WHERE v = 9");
  ASSERT_EQ(unique.Fingerprint(), dup.Fingerprint());

  TunerServiceOptions options;
  options.queue_capacity = 4;
  options.max_batch = 1;
  options.record_history = true;
  options.overload.enabled = true;
  options.overload.high_watermark = 0.6;
  options.overload.low_watermark = 0.01;
  options.overload.sample_floor = 0.25;
  TunerService service(MakeTuner(db), options);
  service.Start();

  // Four copies of one template. Post-pop fills: .75 (enter Shedding —
  // the first copy is novel, kept, and remembered), .5 and .25 (still
  // Shedding: both duplicates shed), 0 (back to Normal before the last
  // copy is decided: kept even though it duplicates the window).
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.SubmitAt(i, db.Bind("SELECT count(*) FROM t3"
                                            " WHERE v = 9")));
  }
  while (service.ProcessBatch() > 0) {
  }
  MetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.overload_shed, 2u);
  EXPECT_EQ(m.overload_sampled_out, 0u);
  EXPECT_EQ(m.overload_mode, 0u);
  EXPECT_TRUE(service.WaitUntilAnalyzed(4));
  service.Shutdown();
  EXPECT_EQ(service.History().size(), 4u);
}

TEST(OverloadTest, EnabledControllerAtRateOneIsBitIdentical) {
  // With the controller armed but never tripped (capacity far above the
  // backlog), the trajectory must be bit-for-bit the no-controller one:
  // the rate-1.0 weight path multiplies every benefit by exactly 1.0.
  constexpr size_t kTotal = 40;
  std::vector<IndexSet> histories[2];
  for (int enabled = 0; enabled < 2; ++enabled) {
    TestDb db;
    Workload w = BuildWorkload(db, kTotal);
    TunerServiceOptions options;
    options.queue_capacity = 1024;
    options.max_batch = 4;
    options.record_history = true;
    options.overload.enabled = enabled == 1;
    TunerService service(MakeTuner(db), options);
    service.Start();
    for (size_t i = 0; i < kTotal; ++i) ASSERT_TRUE(service.SubmitAt(i, w[i]));
    while (service.ProcessBatch() > 0) {
    }
    service.Shutdown();
    histories[enabled] = service.History();
    EXPECT_EQ(service.Metrics().overload_transitions, 0u);
  }
  ASSERT_EQ(histories[0].size(), kTotal);
  ASSERT_EQ(histories[1].size(), kTotal);
  for (size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(histories[0][i], histories[1][i])
        << "controller-at-rest diverged at statement " << i;
  }
}

/// Drives `rounds` bursts of 8: fill the queue, then drain it one
/// single-statement batch at a time — a deterministic pressure schedule,
/// so the controller's walk is identical on every run.
void RunRounds(TunerService& service, const Workload& w, size_t from_round,
               size_t to_round) {
  for (size_t r = from_round; r < to_round; ++r) {
    for (size_t i = 8 * r; i < 8 * (r + 1); ++i) {
      service.SubmitAt(i, w[i]);  // duplicates of recovered seqs drop
    }
    while (service.ProcessBatch() > 0) {
    }
  }
}

TunerServiceOptions SamplingOptions(const std::string& dir) {
  TunerServiceOptions options;
  options.queue_capacity = 8;
  options.max_batch = 1;
  options.record_history = true;
  options.checkpoint_dir = dir;
  options.checkpoint_every_statements = 1u << 30;  // journal-only
  options.checkpoint_on_shutdown = false;          // crash-realistic
  options.overload.enabled = true;
  options.overload.high_watermark = 0.75;
  options.overload.low_watermark = 0.01;
  options.overload.sample_floor = 0.25;
  options.overload.sample_seed = 42;
  return options;
}

void CheckMidSamplingRecovery(bool snapshots) {
  constexpr size_t kRounds = 4;
  constexpr size_t kTotal = 8 * kRounds;
  constexpr size_t kCrashRound = 2;  // queue empty, controller mid-Sampling
  const std::string tag = snapshots ? "snap" : "journal";

  // Reference: the uninterrupted run.
  std::vector<IndexSet> reference;
  MetricsSnapshot ref_end;
  {
    const std::string dir = FreshDir("ref_" + tag);
    TestDb db;
    Workload w = BuildWorkload(db, kTotal);
    TunerServiceOptions options = SamplingOptions(dir);
    if (snapshots) options.checkpoint_every_statements = 10;
    auto service = TunerService::Open(MakeTuner(db), &db.pool(), options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    (*service)->Start();
    RunRounds(**service, w, 0, kRounds);
    (*service)->Shutdown();
    reference = (*service)->History();
    ref_end = (*service)->Metrics();
  }
  ASSERT_EQ(reference.size(), kTotal);
  EXPECT_EQ(ref_end.overload_mode, 2u);
  EXPECT_DOUBLE_EQ(ref_end.sample_rate, 0.5);
  EXPECT_GE(ref_end.overload_sampled_out, 1u) << "sampling never dropped "
                                                 "anything; the schedule "
                                                 "is not exercising it";

  const std::string dir = FreshDir("crash_" + tag);
  TunerServiceOptions options = SamplingOptions(dir);
  if (snapshots) options.checkpoint_every_statements = 10;

  // "Process 1": two rounds, die mid-Sampling without a parting snapshot.
  {
    TestDb db;
    Workload w = BuildWorkload(db, kTotal);
    auto service = TunerService::Open(MakeTuner(db), &db.pool(), options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    (*service)->Start();
    RunRounds(**service, w, 0, kCrashRound);
    MetricsSnapshot m = (*service)->Metrics();
    EXPECT_EQ(m.overload_mode, 2u) << "crash point is not mid-Sampling";
    EXPECT_DOUBLE_EQ(m.sample_rate, 0.5);
    (*service)->Shutdown();
  }

  // "Process 2": recover, then replay the whole workload — the recovered
  // controller must re-derive every shed/sample decision from the epoch
  // journal (and snapshot, when present), continuing bit-identically.
  TestDb db;
  Workload w = BuildWorkload(db, kTotal);
  RecoveryStats stats;
  auto service = TunerService::Open(MakeTuner(db), &db.pool(), options, &stats);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ(stats.analyzed, 8 * kCrashRound);
  EXPECT_EQ(stats.snapshot_loaded, snapshots);
  (*service)->Start();
  RunRounds(**service, w, 0, kRounds);
  (*service)->Shutdown();
  std::vector<IndexSet> recovered = (*service)->History();
  MetricsSnapshot end = (*service)->Metrics();

  const size_t start = stats.snapshot_loaded ? stats.snapshot_analyzed : 0;
  ASSERT_EQ(recovered.size(), kTotal - start);
  for (size_t i = 0; i < recovered.size(); ++i) {
    ASSERT_EQ(recovered[i], reference[start + i])
        << "sampled trajectory diverged at statement " << (start + i);
  }
  EXPECT_EQ(end.overload_mode, ref_end.overload_mode);
  EXPECT_DOUBLE_EQ(end.sample_rate, ref_end.sample_rate);
  EXPECT_EQ((*service)->Recommendation()->configuration, reference.back());
}

TEST(OverloadTest, CrashMidSamplingRecoversBitIdenticalFromJournal) {
  CheckMidSamplingRecovery(/*snapshots=*/false);
}

TEST(OverloadTest, CrashMidSamplingRecoversBitIdenticalFromSnapshot) {
  CheckMidSamplingRecovery(/*snapshots=*/true);
}

}  // namespace
}  // namespace wfit::service

// The online tuning service end to end: producer threads replay a generated
// benchmark workload into a TunerService wrapping WFIT in deterministic
// stages, while a DBA inspects recommendation snapshots and casts votes.
// Ends with the harness metrics report and the Prometheus text export.
//
// With --checkpoint_dir the service becomes crash-recoverable: every
// statement is write-ahead journaled and state snapshots are taken on a
// cadence. The full kill/recover demo (what the CI crash-recovery smoke
// runs):
//
//   tuning_service_demo --trajectory_out=ref.txt            # reference
//   tuning_service_demo --checkpoint_dir=ckpt --kill_after=300   # dies
//   tuning_service_demo --checkpoint_dir=ckpt
//       --trajectory_out=rec.txt --reference=ref.txt        # recovers,
//                                                           # verifies
//
// The third run loads the latest snapshot, replays the journal suffix,
// finishes the workload, and checks its recommendation trajectory against
// the uninterrupted reference — bit-for-bit.
//
// SIGTERM/SIGINT trigger a GRACEFUL shutdown: producers stop, the service
// drains, applies due feedback, and seals journal + final checkpoint — so
// a restart recovers from the snapshot with zero journal replay. (SIGKILL
// via --kill_after stays the crash-path test.)
//
// The per-tenant environment, vote schedule and trajectory verifier live
// in src/cluster/demo_env.* and are shared with the wfit_server /
// wfit_client fleet examples, so cluster trajectories can be verified
// against references this demo produces.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/demo_env.h"
#include "harness/reporting.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "service/tenant_router.h"
#include "service/tuner_service.h"

namespace {

using namespace wfit;
using cluster::DemoFleetEnv;
using cluster::kDemoStage;
using cluster::kDemoVoteOffset;
using cluster::TenantEnv;
using cluster::VoteForStage;
using cluster::WriteAndVerifyTrajectory;

struct Flags {
  std::string checkpoint_dir;
  std::string trajectory_out;
  std::string reference;
  size_t statements = 600;
  uint64_t checkpoint_every = 200;
  uint64_t kill_after = 0;  // 0 = never
  size_t tenants = 1;       // > 1 routes through a TenantRouter
  bool overload = false;    // tiny queue + adaptive overload controller
  std::string trace_out;    // Chrome trace JSON written at exit
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      std::string prefix = std::string("--") + name + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size()
                                       : nullptr;
    };
    if (const char* v = value("checkpoint_dir")) {
      flags.checkpoint_dir = v;
    } else if (const char* v = value("trajectory_out")) {
      flags.trajectory_out = v;
    } else if (const char* v = value("reference")) {
      flags.reference = v;
    } else if (const char* v = value("statements")) {
      flags.statements = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v = value("checkpoint_every")) {
      flags.checkpoint_every = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("kill_after")) {
      flags.kill_after = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("tenants")) {
      flags.tenants = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--overload") {
      flags.overload = true;
    } else if (const char* v = value("trace_out")) {
      flags.trace_out = v;
    } else {
      std::cerr << "unknown flag: " << arg << "\n"
                << "usage: tuning_service_demo [--checkpoint_dir=DIR] "
                   "[--statements=N] [--checkpoint_every=N] "
                   "[--kill_after=K] [--trajectory_out=F] "
                   "[--reference=F] [--tenants=N] [--overload] "
                   "[--trace_out=PATH]\n";
      std::exit(64);
    }
  }
  return flags;
}

/// Set by the SIGTERM/SIGINT handler; producers poll it and stop
/// submitting, after which the normal Shutdown path seals everything.
std::atomic<bool> g_stop{false};

void InstallSignalHandlers() {
  struct sigaction sa {};
  sa.sa_handler = [](int) { g_stop.store(true); };
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

std::string TenantName(size_t t) { return DemoFleetEnv::TenantName(t); }

/// --trace_out: the run executes with tracing on and leaves one Chrome
/// trace JSON document behind. The CI overload smoke greps it for the
/// overload.shed / overload.sample_drop / overload.transition instants.
void MaybeDumpTrace(const Flags& flags) {
  if (flags.trace_out.empty()) return;
  std::ofstream out(flags.trace_out, std::ios::trunc);
  if (!out) {
    std::cerr << "[trace] cannot write " << flags.trace_out << "\n";
    return;
  }
  out << obs::ChromeTraceJson(obs::CollectSpans(), "tuning_service_demo");
  std::cout << "[trace] written to " << flags.trace_out << "\n";
}

/// The multi-tenant flow (--tenants=N): N independent databases behind one
/// TenantRouter with a shared drain pool and a per-tenant checkpoint tree
/// under --checkpoint_dir. Supports the same kill/recover/verify protocol
/// as the single-tenant path, with per-tenant trajectory files
/// (<trajectory_out>.<i> / <reference>.<i>).
int RunMultiTenant(const Flags& flags) {
  const size_t n = flags.tenants;
  DemoFleetEnv fleet(flags.statements);
  for (size_t t = 0; t < n; ++t) fleet.Env(t);  // materialize up front

  service::TenantRouterOptions options;
  options.shard.queue_capacity = 64;
  options.shard.max_batch = 16;
  options.shard.record_history = true;
  if (flags.overload) {
    // Overload smoke: a queue small enough that free-running producers
    // push the fill past the high watermark, so the controller walks
    // Normal → Shedding → Sampling and back while the run still
    // completes (dropped statements keep their analyzed markers).
    options.shard.queue_capacity = 16;
    options.shard.max_batch = 4;
    options.shard.overload.enabled = true;
    options.shard.overload.sample_floor = 0.25;
  }
  options.shard.checkpoint_every_statements = flags.checkpoint_every;
  options.checkpoint_root = flags.checkpoint_dir;
  options.drain_threads = 2;
  // Crash-safe vote pinning: the repin hook runs at every (re-)admission,
  // after recovery but before the shard is scheduled, so votes whose
  // journal record died with a crash are re-registered before the
  // requeued intake can be analyzed.
  options.repin = fleet.MakeRepinner();
  service::TenantRouter router(fleet.MakeTunerFactory(), options);
  router.Start();

  // Admit every tenant (recovering any checkpoint subtree; the repin hook
  // pins the surviving vote boundaries during admission).
  std::vector<service::RecoveryStats> recoveries(n);
  for (size_t t = 0; t < n; ++t) {
    recoveries[t] = router.LastRecovery(TenantName(t));
    if (!flags.checkpoint_dir.empty()) {
      std::cout << "[recover] " << TenantName(t)
                << " snapshot_loaded=" << recoveries[t].snapshot_loaded
                << " replayed=" << recoveries[t].replayed_statements
                << " resumed_at=" << recoveries[t].analyzed << "\n";
    }
  }

  // Crash injection: SIGKILL once the fleet as a whole analyzed enough
  // statements — no destructors, exactly like a machine reset.
  std::thread killer;
  std::atomic<bool> done{false};
  if (flags.kill_after > 0) {
    killer = std::thread([&] {
      while (!done.load()) {
        uint64_t total = 0;
        for (size_t t = 0; t < n; ++t) total += router.analyzed(TenantName(t));
        if (total >= flags.kill_after) {
          std::cout << "[crash] SIGKILL after " << total
                    << " aggregate statements\n"
                    << std::flush;
          ::raise(SIGKILL);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  // One producer per tenant replays the whole workload with explicit
  // sequence numbers; sequences the recovered state already covers are
  // dropped (exactly-once per tenant).
  std::vector<std::thread> producers;
  for (size_t t = 0; t < n; ++t) {
    producers.emplace_back([&, t] {
      const Workload& workload = fleet.Env(t).workload;
      for (size_t seq = 0; seq < workload.size(); ++seq) {
        if (g_stop.load()) return;
        // Overload runs repeat each template 4x in a row: a duplicate-heavy
        // burst is exactly the load Shedding exists for, so the smoke
        // exercises overload.shed as well as the sampling drops.
        const size_t idx = flags.overload ? seq - (seq % 4) : seq;
        router.SubmitAt(TenantName(t), seq, workload[idx]);
      }
    });
  }
  for (auto& p : producers) p.join();
  const bool interrupted = g_stop.load();
  if (!interrupted) {
    for (size_t t = 0; t < n; ++t) {
      router.WaitUntilAnalyzed(TenantName(t), fleet.Env(t).workload.size());
    }
  }
  // Shutdown drains every shard, applies due feedback, and seals journal
  // + final checkpoint — the graceful path for SIGTERM too.
  router.Shutdown();
  done.store(true);
  if (killer.joinable()) killer.join();
  if (interrupted) {
    std::cout << "[signal] graceful shutdown: all shards checkpointed, "
                 "journals sealed — restart recovers without replay\n";
    return 0;
  }

  for (size_t t = 0; t < n; ++t) {
    auto snap = router.Recommendation(TenantName(t));
    // Ids, not names: the tuners intern into their factory-scoped pools,
    // so the shared-scope pool cannot resolve workload-derived indexes.
    // Same "{ids}" format the trajectory files use.
    std::cout << "[" << TenantName(t) << "] final after " << snap->analyzed
              << " statements: " << snap->configuration.ToString() << "\n";
  }
  harness::PrintRouterMetrics(std::cout, "multi-tenant tuning service",
                              router.Metrics());
  std::cout << "\n--- labelled export (excerpt) ---\n";
  std::string text = router.ExportText();
  size_t tenant_families = text.find("# HELP wfit_tenant_stmts_total");
  if (tenant_families != std::string::npos) {
    std::cout << text.substr(tenant_families,
                             std::min<size_t>(600, text.size() -
                                                       tenant_families))
              << "...\n";
  }

  // Per-tenant trajectory files: "<seq> {ids}" starting at the tenant's
  // recovery point; verification compares against the reference run.
  int worst = 0;
  for (size_t t = 0; t < n; ++t) {
    std::vector<IndexSet> history = router.History(TenantName(t));
    const uint64_t history_start = recoveries[t].snapshot_loaded
                                       ? recoveries[t].snapshot_analyzed
                                       : 0;
    std::string suffix = ".";
    suffix += std::to_string(t);
    int code = WriteAndVerifyTrajectory(
        history, history_start,
        flags.trajectory_out.empty() ? "" : flags.trajectory_out + suffix,
        flags.reference.empty() ? "" : flags.reference + suffix,
        TenantName(t) + " ");
    worst = std::max(worst, code);
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  InstallSignalHandlers();
  // --trace_out is self-sufficient; WFIT_TRACE=1 in the environment also
  // enables tracing (dump still requires the flag).
  if (!flags.trace_out.empty()) obs::SetTracingEnabled(true);
  if (flags.tenants > 1) {
    int code = RunMultiTenant(flags);
    MaybeDumpTrace(flags);
    return code;
  }

  // Environment: tenant 0 of the shared demo fleet — the benchmark
  // catalog at reduced scale plus a generated 4-phase trace, so the demo
  // runs in seconds. Everything is seeded, so every invocation —
  // including a recovery — sees the same workload.
  TenantEnv env(0, flags.statements);
  IndexPool& pool = *env.pool;
  Workload& workload = env.workload;

  WfitOptions wfit_options;
  wfit_options.candidates.idx_cnt = 16;
  wfit_options.candidates.state_cnt = 256;
  service::TunerServiceOptions service_options;
  service_options.queue_capacity = 64;
  service_options.max_batch = 16;
  service_options.record_history = true;
  service_options.checkpoint_dir = flags.checkpoint_dir;
  service_options.checkpoint_every_statements = flags.checkpoint_every;
  if (flags.overload) {
    // Same overload smoke shape as the multi-tenant path.
    service_options.queue_capacity = 16;
    service_options.max_batch = 4;
    service_options.overload.enabled = true;
    service_options.overload.sample_floor = 0.25;
  }

  // The service owns the tuner; with a checkpoint_dir, Open() first
  // recovers whatever an earlier (possibly killed) process left behind.
  service::RecoveryStats recovery;
  auto opened = service::TunerService::Open(
      std::make_unique<Wfit>(&pool, env.optimizer.get(), IndexSet{},
                             wfit_options),
      &pool, service_options, &recovery);
  if (!opened.ok()) {
    std::cerr << "recovery failed: " << opened.status().ToString() << "\n";
    return 1;
  }
  service::TunerService& service = **opened;
  const uint64_t recovered = recovery.analyzed;
  if (!flags.checkpoint_dir.empty()) {
    std::cout << "[recover] dir=" << flags.checkpoint_dir
              << " snapshot_loaded=" << recovery.snapshot_loaded
              << " snapshot_analyzed=" << recovery.snapshot_analyzed
              << " replayed_statements=" << recovery.replayed_statements
              << " replayed_feedback=" << recovery.replayed_feedback
              << " resumed_at=" << recovered << "\n";
  }
  // Pin every future DBA vote BEFORE Start(): recovery may have requeued
  // journaled-but-unanalyzed statements that the worker analyzes the
  // moment it spawns, and a vote whose boundary lies inside that window
  // must already be registered or it would apply late (votes lost to the
  // crash always have boundaries >= `recovered`, so this re-pins exactly
  // what the journal could not replay). The vote for stage s applies
  // after statement s+49 (mid-next-stage), so its boundary is pinned no
  // matter how threads interleave — which is what makes the trajectory
  // reproducible across crashes.
  for (size_t stage_start = kDemoStage; stage_start < workload.size();
       stage_start += kDemoStage) {
    const uint64_t vote_at = stage_start + kDemoVoteOffset - 1;
    // Skip votes the recovered state already reflects (their effect was
    // journaled before the crash).
    if (recovered <= vote_at && vote_at + 1 < workload.size()) {
      cluster::DemoVote vote =
          VoteForStage(stage_start / kDemoStage, env.vote_candidates);
      std::cout << "[dba] stage " << stage_start << ": endorse "
                << vote.plus.ToString(pool) << ", veto "
                << vote.minus.ToString(pool) << " (after statement "
                << vote_at << ")\n";
      service.FeedbackAfter(vote_at, vote.plus, vote.minus);
    }
  }
  service.Start();

  // Optional crash injection: a real SIGKILL once enough statements have
  // been analyzed — no destructors, no drain, exactly like a machine
  // reset. The exit code (137) tells the harness the kill happened.
  std::thread killer;
  if (flags.kill_after > 0) {
    killer = std::thread([&] {
      if (service.WaitUntilAnalyzed(flags.kill_after)) {
        std::cout << "[crash] SIGKILL after "
                  << service.analyzed() << " statements\n"
                  << std::flush;
        ::raise(SIGKILL);
      }
    });
  }

  // Deterministic staged replay: submit one stage from 3 producers, wait
  // for it to be analyzed, let the DBA inspect the snapshot, move on.
  for (size_t stage_start = 0;
       stage_start < workload.size() && !g_stop.load();
       stage_start += kDemoStage) {
    const size_t stage_end =
        std::min(stage_start + kDemoStage, workload.size());
    if (stage_end <= recovered) continue;  // replayed from the journal
    const size_t first = std::max<size_t>(stage_start, recovered);
    const int kProducers = 3;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p, first, stage_end] {
        for (size_t seq = first + static_cast<size_t>(p); seq < stage_end;
             seq += kProducers) {
          if (g_stop.load()) return;
          // Same duplicate-heavy shape as the multi-tenant overload run.
          const size_t idx = flags.overload ? seq - (seq % 4) : seq;
          service.SubmitAt(seq, workload[idx]);
        }
      });
    }
    for (auto& t : producers) t.join();
    if (g_stop.load()) break;
    service.WaitUntilAnalyzed(stage_end);
    auto snap = service.Recommendation();
    std::cout << "[dba] after " << snap->analyzed << " statements (v"
              << snap->version << "): "
              << snap->configuration.ToString(pool) << "\n";
  }
  // Shutdown applies pending feedback and (by default) takes the final
  // checkpoint + seals the journal — shared by the normal and the
  // graceful SIGTERM/SIGINT exits.
  service.Shutdown();
  // Only reached when the kill never fired (or was disabled): the waiter
  // unblocks at worker shutdown.
  if (killer.joinable()) killer.join();
  if (g_stop.load()) {
    std::cout << "[signal] graceful shutdown: state checkpointed, journal "
                 "sealed — restart recovers without replay\n";
    return 0;
  }

  auto final_snap = service.Recommendation();
  std::cout << "\nFinal recommendation after " << final_snap->analyzed
            << " statements:\n  " << final_snap->configuration.ToString(pool)
            << "\n\n";
  harness::PrintServiceMetrics(std::cout, "tuning service metrics",
                               service.Metrics());
  std::cout << "\n--- text export (excerpt) ---\n";
  std::string text = service::ExportText(service.Metrics());
  std::cout << text.substr(0, text.find("# HELP wfit_service_queue_depth"))
            << "...\n";

  // Trajectory lines: "seq {ids}" for every statement THIS run analyzed
  // (after a recovery that starts at the snapshot the replay resumed
  // from). The reference run covers the whole workload.
  int code = WriteAndVerifyTrajectory(
      service.History(),
      recovery.snapshot_loaded ? recovery.snapshot_analyzed : 0,
      flags.trajectory_out, flags.reference, /*label=*/"");
  MaybeDumpTrace(flags);
  return code;
}

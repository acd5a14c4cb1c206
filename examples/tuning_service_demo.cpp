// The online tuning service end to end: N independent databases (tenants,
// default 1) behind one TenantRouter. One producer thread per tenant
// replays a generated benchmark workload with explicit sequence numbers
// while the router's drain threads analyze it with WFIT; the DBA's votes
// are pinned to fixed statement boundaries. Ends with the router metrics
// report and an excerpt of the labelled Prometheus export.
//
// With --checkpoint_dir each tenant becomes crash-recoverable under
// <checkpoint_dir>/<tenant>/: every statement is write-ahead journaled and
// state snapshots are taken on a cadence. The full kill/recover demo (what
// the CI crash-recovery smokes run):
//
//   tuning_service_demo --trajectory_out=ref.txt            # reference
//   tuning_service_demo --checkpoint_dir=ckpt --kill_after=300   # dies
//   tuning_service_demo --checkpoint_dir=ckpt
//       --trajectory_out=rec.txt --reference=ref.txt        # recovers,
//                                                           # verifies
//
// The third run loads each tenant's latest snapshot, replays the journal
// suffix, finishes the workload, and checks every tenant's recommendation
// trajectory against the uninterrupted reference — bit-for-bit. Trajectory
// files are per tenant: tenant i writes <trajectory_out>.<i> and verifies
// against <reference>.<i>.
//
// SIGTERM/SIGINT trigger a GRACEFUL shutdown: producers stop, the router
// drains every shard, applies due feedback, and seals journals + final
// checkpoints — so a restart recovers from the snapshots with zero journal
// replay. (SIGKILL via --kill_after stays the crash-path test.)
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

namespace {

using namespace wfit;
using cluster::DemoFleetEnv;
using cluster::WriteAndVerifyTrajectory;

struct Flags {
  std::string checkpoint_dir;
  std::string trajectory_out;
  std::string reference;
  size_t statements = 600;
  uint64_t checkpoint_every = 200;
  uint64_t kill_after = 0;  // 0 = never
  size_t tenants = 1;
  std::string trace_out;  // Chrome trace JSON written at exit
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
      if (flags.tenants == 0) {
        std::cerr << "--tenants must be at least 1\n";
        std::exit(64);
      }
    } else if (const char* v = value("trace_out")) {
      flags.trace_out = v;
    } else {
      std::cerr << "unknown flag: " << arg << "\n"
                << "usage: tuning_service_demo [--checkpoint_dir=DIR] "
                   "[--statements=N] [--checkpoint_every=N] "
                   "[--kill_after=K] [--trajectory_out=F] "
                   "[--reference=F] [--tenants=N] [--trace_out=PATH]\n";
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
/// trace JSON document behind. The CI trace smoke greps it for the
/// `analyze` and `ibg.build` spans.
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

/// The demo (--tenants=N, N >= 1): N independent databases behind one
/// TenantRouter with a shared drain pool and a per-tenant checkpoint tree
/// under --checkpoint_dir, with per-tenant trajectory files
/// (<trajectory_out>.<i> / <reference>.<i>).
int RunMultiTenant(const Flags& flags) {
  const size_t n = flags.tenants;
  DemoFleetEnv fleet(flags.statements);
  for (size_t t = 0; t < n; ++t) fleet.Env(t);  // materialize up front

  service::TenantRouterOptions options;
  options.shard.queue_capacity = 64;
  options.shard.max_batch = 16;
  options.shard.record_history = true;
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
        router.SubmitAt(TenantName(t), seq, workload[seq]);
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

  int worst = 0;
  for (size_t t = 0; t < n; ++t) {
    auto snap = router.Recommendation(TenantName(t));
    if (snap == nullptr) {
      // Admission failed, e.g. a checkpoint tree written by another build
      // (logged as router.admission_failed).
      std::cout << "[" << TenantName(t) << "] never admitted\n";
      worst = 1;
      continue;
    }
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
  int code = RunMultiTenant(flags);
  MaybeDumpTrace(flags);
  return code;
}

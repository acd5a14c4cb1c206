#include "service/tenant_router.h"

#include <sstream>

#include "common/check.h"
#include "obs/health.h"
#include "obs/log.h"
#include "persist/tenant_tree.h"

namespace wfit::service {

namespace {

void RouterCounter(std::ostream& os, const char* name, uint64_t v,
                   const char* help) {
  os << "# HELP wfit_router_" << name << " " << help << "\n"
     << "# TYPE wfit_router_" << name << " counter\n"
     << "wfit_router_" << name << " " << v << "\n";
}

void RouterGauge(std::ostream& os, const char* name, uint64_t v,
                 const char* help) {
  os << "# HELP wfit_router_" << name << " " << help << "\n"
     << "# TYPE wfit_router_" << name << " gauge\n"
     << "wfit_router_" << name << " " << v << "\n";
}

bool IsAccepted(PushAtResult result) {
  return result == PushAtResult::kAccepted;
}

bool IsTrue(bool ok) { return ok; }

}  // namespace

void ExportRouterText(const RouterMetricsSnapshot& s, std::ostream& os) {
  // Aggregate rollup first (the familiar wfit_service_* families), then
  // the labelled per-tenant series, then router-level families.
  ExportText(s.aggregate, os);
  std::vector<std::pair<std::string, MetricsSnapshot>> tenants;
  tenants.reserve(s.tenants.size());
  for (const TenantMetricsEntry& t : s.tenants) {
    tenants.emplace_back(t.id, t.service);
  }
  ExportTenantText(tenants, os);
  os << "# HELP wfit_tenant_evictions_total Checkpoint-then-close evictions"
        " of this tenant's shard\n"
     << "# TYPE wfit_tenant_evictions_total counter\n";
  for (const TenantMetricsEntry& t : s.tenants) {
    os << "wfit_tenant_evictions_total{tenant=\""
       << obs::EscapeLabelValue(t.id) << "\"} " << t.evictions << "\n";
  }
  os << "# HELP wfit_tenant_resident 1 when the tenant's shard is live\n"
     << "# TYPE wfit_tenant_resident gauge\n";
  for (const TenantMetricsEntry& t : s.tenants) {
    os << "wfit_tenant_resident{tenant=\"" << obs::EscapeLabelValue(t.id)
       << "\"} " << (t.resident ? 1 : 0) << "\n";
  }
  RouterGauge(os, "tenants_known", s.tenants_known,
              "Tenants ever routed through this process");
  RouterGauge(os, "tenants_resident", s.tenants_resident,
              "Tenants with a live shard");
  RouterCounter(os, "admissions_total", s.admissions,
                "Shard creations, including re-admissions after eviction");
  RouterCounter(os, "evictions_total", s.evictions,
                "Checkpoint-then-close shard evictions");
  RouterCounter(os, "empty_turns_total", s.empty_turns,
                "Scheduler turns that drained nothing (shard idled, not "
                "re-queued)");
}

std::string ExportRouterText(const RouterMetricsSnapshot& snapshot) {
  std::ostringstream os;
  ExportRouterText(snapshot, os);
  return os.str();
}

TenantRouter::TenantRouter(TunerFactory factory, TenantRouterOptions options)
    : factory_(std::move(factory)), options_(std::move(options)) {
  WFIT_CHECK(factory_ != nullptr, "TenantRouter requires a tuner factory");
  WFIT_CHECK(options_.shard.checkpoint_dir.empty(),
             "per-tenant checkpoint directories are derived from "
             "checkpoint_root; shard.checkpoint_dir must be empty");
}

TenantRouter::~TenantRouter() { Shutdown(); }

void TenantRouter::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  WFIT_CHECK(!started_, "TenantRouter::Start called twice");
  started_ = true;
  drain_threads_.reserve(options_.drain_threads);
  for (size_t i = 0; i < options_.drain_threads; ++i) {
    drain_threads_.emplace_back([this] { DrainLoop(); });
  }
}

void TenantRouter::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
  }
  ready_cv_.notify_all();
  for (std::thread& t : drain_threads_) t.join();
  drain_threads_.clear();
  std::unique_lock<std::mutex> lock(mu_);
  // An embedder-driven DrainOne turn (drain_threads = 0) may still be
  // inside ProcessBatch; wait it out so each shard's inline drain below is
  // properly serialized. Producers racing Shutdown see closed queues.
  ready_cv_.wait(lock, [&] {
    for (const auto& [id, tenant] : tenants_) {
      if (tenant->sched == Tenant::Sched::kRunning) return false;
    }
    return true;
  });
  // An evicted tenant may hold votes that were keyed past its eviction
  // point; a dedicated service's Shutdown applies ALL pending feedback,
  // so flush them by re-admitting (the carried votes re-register during
  // admission and the inline Shutdown below applies + checkpoints them).
  for (auto& [id, tenant] : tenants_) {
    if (tenant->service == nullptr && !tenant->carried_votes.empty()) {
      GetOrAdmitLocked(id, /*admit_while_stopping=*/true);
    }
  }
  // Drain each shard with the router lock released, so Recommendation,
  // analyzed and Metrics readers never wait out a backlog. The pin keeps
  // the shard from being evicted meanwhile; routed submissions and votes
  // are already refused (stopping_).
  std::vector<Tenant*> resident;
  for (auto& [id, tenant] : tenants_) {
    if (tenant->service != nullptr) {
      ++tenant->refs;
      resident.push_back(tenant.get());
    }
  }
  for (Tenant* t : resident) {
    lock.unlock();
    t->service->Shutdown();
    lock.lock();
    --t->refs;
  }
}

TenantRouter::Tenant* TenantRouter::GetOrAdmitLocked(
    const std::string& id, bool admit_while_stopping) {
  WFIT_CHECK(started_, "TenantRouter used before Start()");
  auto it = tenants_.find(id);
  if (it == tenants_.end()) {
    if (stopping_ && !admit_while_stopping) return nullptr;
    auto tenant = std::make_unique<Tenant>();
    tenant->id = id;
    it = tenants_.emplace(id, std::move(tenant)).first;
  }
  Tenant* t = it->second.get();
  if (t->service != nullptr) return t;
  // A shard admitted after Shutdown began would never be scheduled.
  if (stopping_ && !admit_while_stopping) return nullptr;

  // Lazy (re-)admission: build the tuner, recover the tenant's checkpoint
  // directory, and re-register votes carried over the eviction.
  TenantTuner made = factory_(id);
  if (made.tuner == nullptr) {
    obs::Log(obs::LogLevel::kError, "router.factory_failed").Str("tenant", id);
    return nullptr;
  }
  TunerServiceOptions shard_options = options_.shard;
  if (!options_.checkpoint_root.empty()) {
    shard_options.checkpoint_dir =
        persist::TenantCheckpointDir(options_.checkpoint_root, id);
    WFIT_CHECK(made.pool != nullptr,
               "a checkpointing TenantRouter requires the factory to "
               "supply the tenant's index pool");
  }
  RecoveryStats recovery;
  auto opened = TunerService::Open(std::move(made.tuner), made.pool,
                                   std::move(shard_options), &recovery);
  if (!opened.ok()) {
    obs::Log(obs::LogLevel::kError, "router.admission_failed")
        .Str("tenant", id)
        .Str("error", opened.status().ToString());
    return nullptr;
  }
  t->service = std::move(*opened);
  t->last_recovery = recovery;
  if (!t->history_start_set) {
    t->history_start =
        recovery.snapshot_loaded ? recovery.snapshot_analyzed : 0;
    t->history_start_set = true;
  }
  t->service->Start();
  for (auto& [after_seq, votes] : t->carried_votes) {
    t->service->FeedbackAfter(after_seq, votes.first, votes.second);
  }
  if (options_.repin) {
    // Votes lost to a crash have boundaries >= the recovery point; they
    // must be pinned before any requeued intake is scheduled below, or
    // they would apply late. Votes the eviction path carried over (clean
    // evictions and migration handoffs) were just re-registered above —
    // the hook re-reporting one of those must not register it twice.
    for (PinnedVote& vote : options_.repin(id, recovery)) {
      if (vote.after_seq < recovery.analyzed) continue;
      auto [begin, end] = t->carried_votes.equal_range(vote.after_seq);
      bool carried = false;
      for (auto it2 = begin; it2 != end; ++it2) {
        if (it2->second.first == vote.f_plus &&
            it2->second.second == vote.f_minus) {
          carried = true;
          break;
        }
      }
      if (!carried) {
        t->service->FeedbackAfter(vote.after_seq, std::move(vote.f_plus),
                                  std::move(vote.f_minus));
      }
    }
  }
  t->carried_votes.clear();
  ++resident_count_;
  ++admissions_;
  // Intake requeued by recovery is deliverable right away; schedule it.
  NotifyReadyLocked(t);
  return t;
}

bool TenantRouter::EvictLocked(Tenant* t) {
  if (t->service == nullptr || t->sched != Tenant::Sched::kIdle ||
      t->refs != 0 || t->service->QueueDepth() != 0 ||
      options_.checkpoint_root.empty()) {
    return false;
  }
  // Checkpoint-then-close: due feedback applies and is journaled, a final
  // snapshot seals the state, and future-keyed votes come back to us for
  // the next incarnation.
  t->carried_votes = t->service->CloseForEviction();
  MetricsSnapshot metrics = t->service->Metrics();
  // Only counters carry across incarnations. Instantaneous gauges
  // (queue depth/capacity, snapshot size, publication version) describe
  // the live shard; folding them into `retired` would inflate the
  // tenant's series by one capacity/snapshot per eviction cycle.
  metrics.queue_depth = 0;
  metrics.queue_capacity = 0;
  metrics.last_snapshot_bytes = 0;
  metrics.snapshot_version = 0;
  AccumulateCounters(&t->retired, metrics);
  if (options_.shard.record_history) {
    std::vector<IndexSet> history = t->service->History();
    t->retired_history.insert(t->retired_history.end(), history.begin(),
                              history.end());
  }
  t->service.reset();
  --resident_count_;
  ++t->evictions;
  ++evictions_;
  return true;
}

void TenantRouter::NotifyReadyLocked(Tenant* t) {
  if (t->sched == Tenant::Sched::kIdle && t->service != nullptr &&
      t->service->HasDeliverableWork()) {
    t->sched = Tenant::Sched::kReady;
    ready_.push_back(t);
    ready_cv_.notify_one();
  }
}

void TenantRouter::RunTurn(Tenant* t) {
  // The shard is kRunning: this thread owns its drain exclusively, so
  // ProcessBatch needs no router lock.
  const size_t drained = t->service->ProcessBatch();
  std::lock_guard<std::mutex> lock(mu_);
  // A turn that drained nothing found its work gone between scheduling
  // and the turn (e.g. an intake closed under a racing shutdown): count it
  // and idle the shard rather than re-queue a shard that cannot drain.
  if (drained == 0) ++empty_turns_;
  if (drained > 0 && t->service->HasDeliverableWork()) {
    // Tail of the ready ring: round-robin across backlogged shards.
    t->sched = Tenant::Sched::kReady;
    ready_.push_back(t);
  } else {
    t->sched = Tenant::Sched::kIdle;
  }
  // Wakes both drain threads (more work) and a Shutdown waiting for the
  // last in-flight turn to leave kRunning.
  ready_cv_.notify_all();
}

TenantRouter::Tenant* TenantRouter::NextReadyLocked() {
  if (ready_.empty()) return nullptr;
  Tenant* t = ready_.front();
  ready_.pop_front();
  t->sched = Tenant::Sched::kRunning;
  return t;
}

void TenantRouter::DrainLoop() {
  while (true) {
    Tenant* t = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ready_cv_.wait(lock, [&] { return stopping_ || !ready_.empty(); });
      if (stopping_) return;  // Shutdown drains shards inline afterwards
      t = NextReadyLocked();
      if (t == nullptr) continue;
    }
    RunTurn(t);
  }
}

std::string TenantRouter::DrainOne() {
  Tenant* t = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return "";
    t = NextReadyLocked();
    if (t == nullptr) return "";
  }
  RunTurn(t);
  return t->id;
}

template <typename R, typename Call, typename Accepted>
R TenantRouter::RouteSubmit(const std::string& tenant, R refused,
                            Call&& call, Accepted&& accepted) {
  Tenant* t = nullptr;
  TunerService* service = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return refused;
    t = GetOrAdmitLocked(tenant);
    if (t == nullptr) return refused;
    service = t->service.get();
    ++t->refs;
  }
  R result = call(service);
  std::lock_guard<std::mutex> lock(mu_);
  --t->refs;
  // A successful out-of-order push is not deliverable yet, but CanPop
  // decides that — notify is cheap and exact.
  if (accepted(result)) NotifyReadyLocked(t);
  return result;
}

bool TenantRouter::Submit(const std::string& tenant, Statement stmt) {
  return RouteSubmit(
      tenant, false,
      [&](TunerService* s) { return s->Submit(std::move(stmt)); }, IsTrue);
}

bool TenantRouter::TrySubmit(const std::string& tenant, Statement stmt) {
  return RouteSubmit(
      tenant, false,
      [&](TunerService* s) { return s->TrySubmit(std::move(stmt)); },
      IsTrue);
}

bool TenantRouter::SubmitAt(const std::string& tenant, uint64_t seq,
                            Statement stmt) {
  return RouteSubmit(
      tenant, false,
      [&](TunerService* s) { return s->SubmitAt(seq, std::move(stmt)); },
      IsTrue);
}

PushAtResult TenantRouter::TrySubmitAt(const std::string& tenant,
                                       uint64_t seq, Statement stmt) {
  return RouteSubmit(
      tenant, PushAtResult::kClosed,
      [&](TunerService* s) { return s->TrySubmitAt(seq, std::move(stmt)); },
      IsAccepted);
}

void TenantRouter::Feedback(const std::string& tenant, IndexSet f_plus,
                            IndexSet f_minus) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return;
  Tenant* t = GetOrAdmitLocked(tenant);
  if (t == nullptr) return;
  t->service->Feedback(std::move(f_plus), std::move(f_minus));
}

void TenantRouter::FeedbackAfter(const std::string& tenant,
                                 uint64_t after_seq, IndexSet f_plus,
                                 IndexSet f_minus) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return;
  Tenant* t = GetOrAdmitLocked(tenant);
  if (t == nullptr) return;
  t->service->FeedbackAfter(after_seq, std::move(f_plus),
                            std::move(f_minus));
}

std::shared_ptr<const RecommendationSnapshot> TenantRouter::Recommendation(
    const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  Tenant* t = GetOrAdmitLocked(tenant);
  if (t == nullptr) return nullptr;
  return t->service->Recommendation();
}

bool TenantRouter::WaitUntilAnalyzed(const std::string& tenant, uint64_t n) {
  Tenant* t = nullptr;
  TunerService* service = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    t = GetOrAdmitLocked(tenant);
    if (t == nullptr) return false;
    service = t->service.get();
    ++t->refs;
  }
  bool reached = service->WaitUntilAnalyzed(n);
  std::lock_guard<std::mutex> lock(mu_);
  --t->refs;
  return reached;
}

uint64_t TenantRouter::analyzed(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  Tenant* t = GetOrAdmitLocked(tenant);
  return t == nullptr ? 0 : t->service->analyzed();
}

std::vector<IndexSet> TenantRouter::History(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return {};
  Tenant* t = it->second.get();
  std::vector<IndexSet> history = t->retired_history;
  if (t->service != nullptr) {
    std::vector<IndexSet> live = t->service->History();
    history.insert(history.end(), live.begin(), live.end());
  }
  return history;
}

RecoveryStats TenantRouter::LastRecovery(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  Tenant* t = GetOrAdmitLocked(tenant);
  return t == nullptr ? RecoveryStats{} : t->last_recovery;
}

uint64_t TenantRouter::HistoryStart(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second->history_start;
}

bool TenantRouter::IsResident(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it != tenants_.end() && it->second->service != nullptr;
}

StatusOr<TunerService::PendingVotes> TenantRouter::TakeCarriedVotes(
    const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return TunerService::PendingVotes{};
  Tenant* t = it->second.get();
  if (t->service != nullptr) {
    return Status::FailedPrecondition(
        "TakeCarriedVotes: tenant is resident — evict first");
  }
  TunerService::PendingVotes votes;
  votes.swap(t->carried_votes);
  return votes;
}

Status TenantRouter::SeedCarriedVotes(const std::string& tenant,
                                      TunerService::PendingVotes votes) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    auto entry = std::make_unique<Tenant>();
    entry->id = tenant;
    it = tenants_.emplace(tenant, std::move(entry)).first;
  }
  Tenant* t = it->second.get();
  if (t->service != nullptr) {
    return Status::FailedPrecondition(
        "SeedCarriedVotes: tenant is already resident");
  }
  for (auto& [after_seq, vote] : votes) {
    t->carried_votes.emplace(after_seq, std::move(vote));
  }
  return Status::Ok();
}

bool TenantRouter::Evict(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return false;
  return EvictLocked(it->second.get());
}

size_t TenantRouter::EvictIdle() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t evicted = 0;
  for (auto& [id, tenant] : tenants_) {
    if (tenant->service != nullptr && EvictLocked(tenant.get())) {
      ++evicted;
    }
  }
  return evicted;
}

std::vector<std::string> TenantRouter::ResidentTenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  for (const auto& [id, tenant] : tenants_) {
    if (tenant->service != nullptr) ids.push_back(id);
  }
  return ids;
}

std::vector<std::string> TenantRouter::PersistedTenants() const {
  if (options_.checkpoint_root.empty()) return {};
  auto ids = persist::ListTenantIds(options_.checkpoint_root);
  return ids.ok() ? *ids : std::vector<std::string>{};
}

RouterMetricsSnapshot TenantRouter::Metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  RouterMetricsSnapshot s;
  for (const auto& [id, tenant] : tenants_) {
    TenantMetricsEntry entry;
    entry.id = id;
    entry.service = tenant->retired;
    if (tenant->service != nullptr) {
      AccumulateCounters(&entry.service, tenant->service->Metrics());
      entry.resident = true;
    }
    entry.evictions = tenant->evictions;
    AccumulateCounters(&s.aggregate, entry.service);
    s.tenants.push_back(std::move(entry));
  }
  s.tenants_known = tenants_.size();
  s.tenants_resident = resident_count_;
  s.admissions = admissions_;
  s.evictions = evictions_;
  s.empty_turns = empty_turns_;
  return s;
}

std::string TenantRouter::ExportText() const {
  return ExportRouterText(Metrics());
}

}  // namespace wfit::service

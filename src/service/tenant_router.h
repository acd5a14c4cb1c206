// TenantRouter: one deployment tuning many databases at once. The router
// owns N independent TunerService shards — one per tenant, each with its
// own Tuner, ingest queue and checkpoint directory <root>/<tenant>/ — all
// multiplexed over a small fixed set of drain threads, so aggregate thread
// count stays bounded no matter how many tenants exist.
//
//   Submit(tenant, stmt) ──▶ shard ingest queue ──▶ ready ring (FIFO)
//                                                       │ one batch per turn
//                            drain threads ◀────────────┘
//                     (round-robin across ready shards; each batch is
//                      analyzed serially on the draining thread)
//
// Scheduling is round-robin at batch granularity: a shard that still has
// deliverable work after its turn re-enters the ready ring at the TAIL, so
// with R backlogged shards every one of them is served again within R
// turns — one hot tenant can never starve the rest (starvation-freedom is
// proven deterministically in tenant_router_test via DrainOne).
//
// Shards are created lazily by a tuner-factory callback the first time a
// tenant is routed. Under a configurable bound on the resident tenant
// count the router evicts least-recently-active idle shards with a
// checkpoint-then-close lifecycle: the shard takes a final state
// snapshot, votes keyed to future statements are carried over, and the
// next touch re-admits the tenant by recovering that checkpoint — so
// eviction is lossless and the tenant's recommendation trajectory is
// bit-for-bit the one a dedicated, never-evicted TunerService would have
// produced.
//
// Every tenant's counters are exported as labelled Prometheus series
// (`wfit_tenant_*{tenant="..."}`) under one registry, with aggregate
// rollups (`wfit_service_*`) and router-level families (`wfit_router_*`).
#ifndef WFIT_SERVICE_TENANT_ROUTER_H_
#define WFIT_SERVICE_TENANT_ROUTER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/index_set.h"
#include "core/tuner.h"
#include "service/metrics.h"
#include "service/tuner_service.h"

namespace wfit::service {

/// What the tuner factory returns for one tenant. The pool must be the one
/// the tuner interns into; it is required (and must outlive the router)
/// when the router checkpoints, and must be the same pool across
/// re-admissions of the tenant (snapshot restore re-interns and verifies
/// ids against it).
struct TenantTuner {
  std::unique_ptr<Tuner> tuner;
  IndexPool* pool = nullptr;
};

/// Called under the router lock whenever a tenant is (re-)admitted; must
/// construct the tenant's tuner with the same configuration every time
/// (the recovery determinism contract).
using TunerFactory = std::function<TenantTuner(const std::string& tenant_id)>;

/// A DBA vote pinned to a statement boundary (see
/// TunerService::FeedbackAfter).
struct PinnedVote {
  uint64_t after_seq = 0;
  IndexSet f_plus;
  IndexSet f_minus;
};

/// Called at every (re-)admission, after recovery but BEFORE the shard is
/// scheduled: returns the votes to pin for boundaries the recovered state
/// has not reached. This is the crash-safe way to re-register votes whose
/// journal record died with the process — registering them after admission
/// races the analysis of requeued intake (a vote whose boundary lies
/// inside that window would apply late). Boundaries below
/// `recovery.analyzed` are already reflected in the recovered state and
/// are dropped.
using VoteRepinner = std::function<std::vector<PinnedVote>(
    const std::string& tenant_id, const RecoveryStats& recovery)>;

/// Per-tenant QoS class for the weighted deficit-round-robin scheduler.
/// Scheduling is DRR at statement granularity: every turn a backlogged
/// shard's deficit grows by its quantum (weight × shard max_batch) and the
/// turn drains batches until the deficit is spent, so over any backlogged
/// interval tenants drain in proportion to their weights. The default
/// (weight 1) reproduces one-batch-per-turn round-robin exactly —
/// per-tenant analysis trajectories are untouched by scheduling either
/// way, since DRR only reorders across tenants. A tenant without an entry
/// in TenantRouterOptions::tenant_qos gets TenantQos{}.
struct TenantQos {
  /// Relative drain share. Quantum per turn =
  /// max(1, round(weight × shard.max_batch)).
  double weight = 1.0;
  /// Overload sampling floor for this tenant (overrides the shard
  /// template's OverloadOptions::sample_floor when positive).
  double sample_floor = 0.0;
};

/// The ranges the router and its shards rely on: the weight scales the DRR
/// quantum (converted to size_t) and must lie in (0, 1e6]; a sample floor
/// above 1 would fail the shard's construction check. InvalidArgument
/// names the first field out of range.
Status ValidateTenantQos(const TenantQos& qos);

struct TenantRouterOptions {
  /// Per-shard template (queue capacity, max_batch, history, checkpoint
  /// cadence...). checkpoint_dir must be empty — per-tenant directories
  /// are derived from checkpoint_root.
  TunerServiceOptions shard;
  /// Root of the multi-tenant checkpoint tree; each tenant persists under
  /// <root>/<encoded tenant id>/. Empty disables durability AND eviction
  /// (evicting without a checkpoint would lose state).
  std::string checkpoint_root;
  /// Concurrent shard drains (scheduler threads). 0 = no threads: the
  /// embedder steps the scheduler manually via DrainOne (tests, or an
  /// external event loop).
  size_t drain_threads = 1;
  /// Evict least-recently-active idle shards so at most this many tenants
  /// are resident. 0 = unbounded.
  size_t max_resident_tenants = 0;
  /// Optional crash-safe vote re-registration hook (see VoteRepinner).
  VoteRepinner repin;
  /// Per-tenant QoS classes (weight, sampling floor); every entry must
  /// pass ValidateTenantQos (checked at construction). Mutable at runtime
  /// via SetTenantQos.
  std::map<std::string, TenantQos> tenant_qos;
};

/// Per-tenant slice of RouterMetricsSnapshot. `service` is merged across
/// the tenant's incarnations (counters from evicted incarnations are
/// carried), so its counters are monotone for the lifetime of the router.
struct TenantMetricsEntry {
  std::string id;
  MetricsSnapshot service;
  uint64_t evictions = 0;
  bool resident = false;
  // Effective QoS class and scheduler state (wfit_router_qos_* series).
  double qos_weight = 1.0;
  double drr_deficit = 0.0;
};

struct RouterMetricsSnapshot {
  /// Counter rollup over every tenant (incl. evicted incarnations).
  MetricsSnapshot aggregate;
  /// Sorted by tenant id.
  std::vector<TenantMetricsEntry> tenants;
  uint64_t tenants_known = 0;
  uint64_t tenants_resident = 0;
  uint64_t admissions = 0;  // shard creations, incl. re-admissions
  uint64_t evictions = 0;
  /// Scheduler turns that drained nothing (e.g. a shard whose deliverable
  /// work vanished between scheduling and the turn); such a shard is idled
  /// instead of being re-queued, so the ring never spins on it.
  uint64_t empty_turns = 0;
};

/// Prometheus text export of the whole registry: aggregate wfit_service_*
/// families, labelled wfit_tenant_*{tenant="..."} series, and router-level
/// wfit_router_* families.
void ExportRouterText(const RouterMetricsSnapshot& snapshot,
                      std::ostream& os);
std::string ExportRouterText(const RouterMetricsSnapshot& snapshot);

class TenantRouter {
 public:
  explicit TenantRouter(TunerFactory factory,
                        TenantRouterOptions options = {});
  /// Shuts down (draining every resident shard) if still running.
  ~TenantRouter();

  TenantRouter(const TenantRouter&) = delete;
  TenantRouter& operator=(const TenantRouter&) = delete;

  /// Spawns the drain threads (if any). Must be called exactly once,
  /// before any routed operation.
  void Start();

  /// Stops the scheduler, then drains and closes every resident shard
  /// (applying pending feedback, taking shutdown checkpoints per the shard
  /// options). Idempotent. Routed operations fail afterwards.
  void Shutdown();

  // --- Routed operations (create the shard on first touch) --------------
  /// Blocking submission in the tenant's arrival order; returns false iff
  /// the router is shut down or the tenant failed to admit.
  bool Submit(const std::string& tenant, Statement stmt);
  /// Non-blocking submission; false when the tenant's queue is full (a
  /// rejection in that tenant's metrics), the router is shut down, or the
  /// tenant failed to admit.
  bool TrySubmit(const std::string& tenant, Statement stmt);
  /// Deterministic submission at an explicit per-tenant sequence number
  /// (see TunerService::SubmitAt; sequences already covered by recovered
  /// state are dropped — exactly-once per tenant).
  bool SubmitAt(const std::string& tenant, uint64_t seq, Statement stmt);
  /// Non-blocking SubmitAt for event-loop callers: kWouldBlock instead of
  /// backpressure blocking (retry later), kDuplicate when the sequence is
  /// already covered (exactly-once success), kClosed when the router is
  /// shut down or admission failed.
  PushAtResult TrySubmitAt(const std::string& tenant, uint64_t seq,
                           Statement stmt);
  /// Bounded-wait submission: blocks on the tenant's backpressure at most
  /// until `deadline`, then reports kWouldBlock — a producer can never
  /// wedge past its deadline no matter how overloaded the shard is.
  PushAtResult SubmitWithDeadline(const std::string& tenant, Statement stmt,
                                  std::chrono::steady_clock::time_point
                                      deadline);
  /// Bounded-wait SubmitAt (kWouldBlock after `deadline`; the caller owns
  /// the sequence and may retry it).
  PushAtResult SubmitAtWithDeadline(const std::string& tenant, uint64_t seq,
                                    Statement stmt,
                                    std::chrono::steady_clock::time_point
                                        deadline);

  /// Replaces the tenant's QoS class. The weight takes effect at the
  /// shard's next scheduler turn; the sampling floor configures the shard
  /// service and takes effect at its next (re-)admission. A class that
  /// fails ValidateTenantQos is rejected with its InvalidArgument and
  /// nothing is installed.
  Status SetTenantQos(const std::string& tenant, TenantQos qos);
  /// The tenant's effective QoS class (TenantQos{} when never set).
  TenantQos GetTenantQos(const std::string& tenant) const;

  /// DBA votes, routed by tenant (see TunerService::Feedback*).
  void Feedback(const std::string& tenant, IndexSet f_plus,
                IndexSet f_minus);
  void FeedbackAfter(const std::string& tenant, uint64_t after_seq,
                     IndexSet f_plus, IndexSet f_minus);

  /// The tenant's current published recommendation (recovered state for a
  /// freshly re-admitted tenant); nullptr if admission failed.
  std::shared_ptr<const RecommendationSnapshot> Recommendation(
      const std::string& tenant);

  /// Blocks until the tenant analyzed `n` statements or its shard stopped.
  bool WaitUntilAnalyzed(const std::string& tenant, uint64_t n);
  uint64_t analyzed(const std::string& tenant);

  /// Per-statement recommendation history across incarnations: history
  /// retired at evictions, then the live shard's (requires
  /// options.shard.record_history). After clean evictions the
  /// concatenation is seamless; after a crash the live part starts at the
  /// recovered snapshot (see RecoveryStats).
  std::vector<IndexSet> History(const std::string& tenant);

  /// What the tenant's latest (re-)admission recovered.
  RecoveryStats LastRecovery(const std::string& tenant);

  /// Sequence number of the first entry History(tenant) covers on this
  /// router: 0 for a tenant first admitted cold, the handoff snapshot's
  /// analyzed count for one admitted from a migrated (or crash-recovered)
  /// checkpoint tree. Non-admitting; 0 for unknown tenants.
  uint64_t HistoryStart(const std::string& tenant) const;

  /// True when the tenant currently has a live shard. Non-admitting.
  bool IsResident(const std::string& tenant) const;

  // --- Scheduling / lifecycle hooks --------------------------------------
  /// Manually runs one scheduler turn: drains one batch from the shard at
  /// the head of the ready ring and re-queues it at the tail if it still
  /// has work. Returns the tenant drained, or "" when nothing was ready.
  /// The deterministic stepping mode used with drain_threads = 0.
  std::string DrainOne();

  /// Checkpoint-then-close the tenant's shard now. Returns false when the
  /// tenant is not resident, is mid-drain, has buffered statements, or the
  /// router has no checkpoint_root (eviction would be lossy). Note the
  /// eviction (and lazy admission/recovery) runs under the router lock, so
  /// its snapshot write — single-digit milliseconds for an idle shard —
  /// briefly serializes routing; a kEvicting state that drops the lock
  /// around the I/O is the known follow-up if eviction storms ever show up
  /// in the drain-latency histogram.
  bool Evict(const std::string& tenant);

  /// Evicts every idle resident tenant; returns how many were evicted.
  size_t EvictIdle();

  // --- Migration handoff (cluster/) --------------------------------------
  /// Moves out the future-keyed votes an eviction carried for this tenant
  /// so they can be shipped to another node alongside the packed
  /// checkpoint tree. FailedPrecondition while the tenant is resident
  /// (evict first — taking votes from under a live shard would lose them);
  /// an unknown tenant simply has none. After a successful take the next
  /// local admission no longer re-registers them, so the tenant can only
  /// continue where the votes went.
  StatusOr<TunerService::PendingVotes> TakeCarriedVotes(
      const std::string& tenant);

  /// Registers carried votes ahead of the tenant's next local admission —
  /// the receiving side of a migration handoff (the shipped checkpoint
  /// tree must already be under checkpoint_root). FailedPrecondition when
  /// the tenant is already resident.
  Status SeedCarriedVotes(const std::string& tenant,
                          TunerService::PendingVotes votes);

  /// Tenant ids with a live shard right now, sorted.
  std::vector<std::string> ResidentTenants() const;

  /// Tenant ids found under checkpoint_root on disk (what a restarted
  /// router can re-admit), sorted. Empty without a checkpoint_root.
  std::vector<std::string> PersistedTenants() const;

  RouterMetricsSnapshot Metrics() const;
  /// ExportRouterText(Metrics()) plus per-tenant eviction counters.
  std::string ExportText() const;

 private:
  struct Tenant {
    std::string id;
    std::unique_ptr<TunerService> service;  // null when evicted / failed
    enum class Sched { kIdle, kReady, kRunning } sched = Sched::kIdle;
    /// In-flight routed calls holding `service` outside the router lock;
    /// eviction requires 0.
    int refs = 0;
    uint64_t last_active = 0;  // logical LRU stamp
    uint64_t evictions = 0;
    /// Carried across incarnations.
    MetricsSnapshot retired;
    std::vector<IndexSet> retired_history;
    TunerService::PendingVotes carried_votes;
    RecoveryStats last_recovery;
    /// Sequence of the first local history entry (set at first admission).
    uint64_t history_start = 0;
    bool history_start_set = false;
    /// Effective QoS class (options.tenant_qos entry; SetTenantQos).
    TenantQos qos;
    /// DRR credit in statements. Grows by the quantum at each turn, spent
    /// by draining; residual (< 1) persists while backlogged, reset when
    /// the shard idles (an empty queue earns no credit).
    double deficit = 0.0;
  };


  /// Finds or lazily admits the tenant; may evict others to make room.
  /// After Shutdown has begun, admission is refused (a freshly admitted
  /// shard would never be scheduled) unless `admit_while_stopping` — the
  /// override Shutdown itself uses to flush carried votes. Returns null
  /// when admission failed or was refused. Lock held.
  Tenant* GetOrAdmitLocked(const std::string& id,
                           bool admit_while_stopping = false);
  /// Evicts LRU idle shards until the shard about to be admitted fits
  /// under max_resident_tenants.
  void EnsureCapacityLocked();
  /// Checkpoint-then-close; requires an idle shard. Lock held.
  bool EvictLocked(Tenant* t);
  /// Re-queues the shard after a drain turn (or idles it, resetting its
  /// deficit). Lock held.
  void FinishTurnLocked(Tenant* t);
  /// The tenant's quantum in statements: max(1, round(weight×max_batch)).
  double QuantumLocked(const Tenant* t) const;
  /// Charges the turn's quantum and returns the turn's credit, copied
  /// under the lock so the drain runs lock-free against SetTenantQos.
  /// Lock held.
  double BeginTurnLocked(Tenant* t);
  /// Runs the DRR turn against the running shard (lock NOT held): drains
  /// batches until the credit is spent or the shard runs dry. Returns
  /// statements drained; the residual credit is left in `*deficit`.
  size_t RunTurn(Tenant* t, double* deficit);
  /// Writes the residual deficit back and re-queues or idles the shard;
  /// a zero-drain turn is counted and never re-queued. Lock taken inside.
  void EndTurn(Tenant* t, double deficit, size_t drained);
  /// Schedules the shard if it has deliverable work. Lock held.
  void NotifyReadyLocked(Tenant* t);
  void DrainLoop();
  /// Pops the next ready shard, marking it running. Lock held.
  Tenant* NextReadyLocked();
  /// The protocol every Submit variant shares: admit the tenant under the
  /// lock, pin its shard (`refs` > 0 blocks eviction), run `call` on the
  /// shard outside the lock (it may block on backpressure), then unpin and
  /// schedule the shard when `accepted(result)`. Returns `refused` when
  /// the router is stopping or admission failed.
  template <typename R, typename Call, typename Accepted>
  R RouteSubmit(const std::string& tenant, R refused, Call&& call,
                Accepted&& accepted);

  TunerFactory factory_;
  TenantRouterOptions options_;

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::deque<Tenant*> ready_;
  std::vector<std::thread> drain_threads_;
  bool started_ = false;
  bool stopping_ = false;
  uint64_t activity_clock_ = 0;
  uint64_t admissions_ = 0;
  uint64_t evictions_ = 0;
  uint64_t resident_count_ = 0;
  uint64_t empty_turns_ = 0;
};

}  // namespace wfit::service

#endif  // WFIT_SERVICE_TENANT_ROUTER_H_

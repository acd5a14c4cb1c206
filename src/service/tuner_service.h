// TunerService: a thread-safe online tuning service wrapping any Tuner
// (WFIT, WFA+, BC) behind a concurrent ingestion pipeline.
//
//   producers ──Submit/SubmitAt──▶ IngestQueue (bounded, sequence-ordered)
//                                       │  TryPopBatch
//                                       ▼
//                          ProcessBatch (one batch per call;
//                        AnalyzeQuery per statement, DBA
//                         feedback interleaved at statement
//                         boundaries, snapshot publication)
//                                       │
//              Recommendation() ◀── versioned snapshot (readers never
//                                   block on analysis)
//
// The service owns no thread. Its drainer calls ProcessBatch whenever
// HasDeliverableWork() holds: in a deployment that is a TenantRouter drain
// thread (a standalone service is a router with one tenant); a test may
// also call it inline. Shutdown drains what is left on the calling thread.
//
// Determinism contract: the analysis order equals the sequence-number
// order of submitted statements, and feedback registered with
// FeedbackAfter(k, ...) is applied immediately after statement k — so a
// multi-threaded replay of a workload (statement i submitted at sequence i
// from any thread) produces exactly the recommendation trajectory of a
// serial run of the same tuner on the same workload.
//
// Durability contract (options.checkpoint_dir, created via Open): every
// ingested statement is appended to a write-ahead journal and fsynced
// before analysis; applied DBA votes are journaled with the boundary at
// which they took effect and made durable before any later analysis. State
// snapshots are taken at batch boundaries (serialized with analysis, so
// they are consistent) every checkpoint_every_statements. After a crash,
// Open loads the newest valid snapshot (falling back past corrupt ones)
// and replays only the journal suffix beyond it — the recovered service
// continues the exact recommendation trajectory of an uninterrupted run.
#ifndef WFIT_SERVICE_TUNER_SERVICE_H_
#define WFIT_SERVICE_TUNER_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/index_set.h"
#include "core/tuner.h"
#include "persist/journal.h"
#include "service/ingest_queue.h"
#include "service/metrics.h"
#include "workload/statement.h"

namespace wfit::service {

struct TunerServiceOptions {
  /// Bound on buffered statements; producers beyond it experience
  /// backpressure.
  size_t queue_capacity = 1024;
  /// ProcessBatch drains at most this many statements per batch.
  size_t max_batch = 32;
  /// Record the recommendation after every analyzed statement (for
  /// determinism tests and offline inspection). Off in production.
  bool record_history = false;

  // --- Durability (persist/) --------------------------------------------
  /// Directory for the write-ahead journal + state snapshots. Empty
  /// disables persistence. Services with a checkpoint_dir must be created
  /// through TunerService::Open, which runs recovery first.
  std::string checkpoint_dir;
  /// Snapshot cadence: a checkpoint is taken at the first batch boundary
  /// after this many statements since the last one.
  uint64_t checkpoint_every_statements = 1024;
  /// Take a final checkpoint when Shutdown drains. False is
  /// crash-realistic shutdown: no parting snapshot, and future-keyed votes
  /// die un-applied (journaling them at an early boundary is something no
  /// real crash could do; recovery re-pins them instead).
  bool checkpoint_on_shutdown = true;
  /// After a checkpoint covers a journal prefix (two durable snapshots),
  /// the journal is rewritten without it, keeping its steady-state size
  /// proportional to the checkpoint interval, not total history. Skip
  /// that rewrite while the journal is smaller than this — rewriting a
  /// tiny file buys nothing and costs three fsyncs.
  uint64_t journal_compact_min_bytes = 64 * 1024;
};

/// What recovery found and replayed (TunerService::Open).
struct RecoveryStats {
  /// True when a snapshot restored cleanly; false on a cold start (any
  /// journal is then replayed from the beginning).
  bool snapshot_loaded = false;
  uint64_t snapshot_analyzed = 0;
  /// Corrupt snapshots skipped before one loaded.
  uint64_t snapshots_skipped = 0;
  uint64_t replayed_statements = 0;
  uint64_t replayed_feedback = 0;
  /// Statements that were WAL-journaled but not yet durably analyzed at
  /// the crash (at most one batch): put back into the ingest queue so the
  /// next ProcessBatch analyzes them — after any votes the driver re-pins
  /// at their boundaries.
  uint64_t requeued_statements = 0;
  /// Total statements reflected in the recovered state; producers replaying
  /// a deterministic workload should resume submitting at this sequence,
  /// and re-register votes for boundaries >= it.
  uint64_t analyzed = 0;
};

/// An immutable, versioned view of the tuner's recommendation. Obtained
/// lock-free of the analysis path; hold it as long as convenient.
struct RecommendationSnapshot {
  IndexSet configuration;
  /// Statements analyzed when this snapshot was published.
  uint64_t analyzed = 0;
  /// Monotone publication counter (feedback application also bumps it).
  uint64_t version = 0;
};

class TunerService {
 public:
  /// Votes keyed to statement boundaries the service has not reached yet
  /// (extracted at eviction, re-registered on the recovered incarnation).
  using PendingVotes =
      std::multimap<uint64_t, std::pair<IndexSet, IndexSet>>;

  /// The service takes ownership of the tuner: only the drain path
  /// (ProcessBatch / CloseForEviction / Shutdown, externally serialized)
  /// calls tuner->AnalyzeQuery()/Feedback(), which is what makes
  /// single-threaded Tuner implementations safe to serve concurrent
  /// producers. Requires options.checkpoint_dir to be empty — durable
  /// services are created through Open so recovery always runs.
  TunerService(std::unique_ptr<Tuner> tuner, TunerServiceOptions options = {});

  /// Creates a service with durability: loads the latest valid snapshot
  /// from options.checkpoint_dir (falling back past corrupt ones), replays
  /// the journal suffix beyond it — exactly once — and opens the journal
  /// for appending. The tuner must be constructed with the same
  /// configuration (and `pool`) as the run that wrote the checkpoint; on a
  /// fresh directory this is an ordinary cold start. State another build
  /// wrote (a snapshot of another format version, an intact journal record
  /// this build cannot decode) fails with FailedPrecondition and every
  /// file untouched. Call Start() on the result as usual. With an empty
  /// checkpoint_dir, equivalent to the constructor (pool may then be
  /// null).
  static StatusOr<std::unique_ptr<TunerService>> Open(
      std::unique_ptr<Tuner> tuner, IndexPool* pool,
      TunerServiceOptions options = {}, RecoveryStats* recovery = nullptr);

  /// Shuts down (draining buffered statements) if still running.
  ~TunerService();

  TunerService(const TunerService&) = delete;
  TunerService& operator=(const TunerService&) = delete;

  /// Publishes the initial snapshot (the recovered state after Open).
  /// Must be called exactly once, before the first ProcessBatch.
  void Start();

  /// Drains at most one batch (non-blocking): pops up to `max_statements`
  /// (clamped to [1, max_batch]) contiguous statements, write-ahead
  /// journals them, analyzes each with deterministic feedback
  /// interleaving, publishes, and checkpoints on cadence. Returns the
  /// number of statements analyzed (0 = nothing deliverable).
  /// ProcessBatch, CloseForEviction and Shutdown must be externally
  /// serialized; producers (Submit*/Feedback*/Recommendation/Wait*) are
  /// free-threaded.
  size_t ProcessBatch(size_t max_statements = SIZE_MAX);

  /// Closes the intake, drains every remaining batch on the calling
  /// thread, applies pending feedback and takes the shutdown checkpoint
  /// (if configured). The caller must have stopped issuing ProcessBatch
  /// calls first. Idempotent; the service is finished afterwards.
  void Shutdown();

  /// True when ProcessBatch would analyze at least one statement now (the
  /// drainer's scheduling predicate).
  bool HasDeliverableWork() const { return queue_.CanPop(); }

  /// Buffered statements (including non-contiguous ones); 0 is the
  /// idleness predicate for lossless eviction.
  size_t QueueDepth() const { return queue_.depth(); }

  /// The lossless eviction path: closes the intake (the router only evicts
  /// idle services, so the drain is empty in practice), applies feedback
  /// that is already due (ASAP votes and votes keyed to analyzed
  /// statements), takes a final checkpoint unconditionally, and returns
  /// the votes keyed to future boundaries so the router can re-register
  /// them on the recovered incarnation — eviction never applies a vote
  /// early and never loses one.
  PendingVotes CloseForEviction();

  /// Blocking submission in arrival order; returns false iff shut down.
  bool Submit(Statement stmt);
  /// Non-blocking submission; returns false if the queue is full or the
  /// service is shut down (counted in metrics as a rejection).
  bool TrySubmit(Statement stmt);
  /// Deterministic submission: the statement is analyzed as the `seq`-th
  /// of the stream regardless of which thread submits first. See
  /// IngestQueue::PushAt for the contiguity contract. Returns false when
  /// shut down or when `seq` is already covered by recovered state (the
  /// statement is dropped — exactly-once analysis).
  bool SubmitAt(uint64_t seq, Statement stmt);
  /// Non-blocking SubmitAt for event-loop callers (the network front end):
  /// kWouldBlock instead of backpressure blocking, kDuplicate when `seq`
  /// is already covered (dropped — exactly-once), kClosed when shut down.
  PushAtResult TrySubmitAt(uint64_t seq, Statement stmt);

  /// Registers a DBA vote applied at the next statement boundary (i.e.
  /// before the next AnalyzeQuery), serialized with analysis.
  void Feedback(IndexSet f_plus, IndexSet f_minus);
  /// Registers a DBA vote applied immediately after statement `after_seq`
  /// is analyzed — the deterministic variant. If that statement was
  /// already analyzed, the vote is applied at the next boundary.
  void FeedbackAfter(uint64_t after_seq, IndexSet f_plus, IndexSet f_minus);

  /// Current published snapshot; never blocks on analysis. Non-null once
  /// Start() has run (the first snapshot carries the initial
  /// configuration — analyzed == 0 on a cold start).
  std::shared_ptr<const RecommendationSnapshot> Recommendation() const;

  /// Blocks until at least `n` statements have been analyzed, or the
  /// service has finished (shutdown or eviction). Returns true iff `n` was
  /// reached. Some other thread must be draining.
  bool WaitUntilAnalyzed(uint64_t n) const;
  uint64_t analyzed() const;

  /// Merged service + queue metrics.
  MetricsSnapshot Metrics() const;

  /// Per-statement recommendation history; statement i's entry is the
  /// recommendation right after it was analyzed (feedback applied at that
  /// boundary included). Requires options.record_history; call after
  /// Shutdown() or synchronize via WaitUntilAnalyzed().
  std::vector<IndexSet> History() const;

  const Tuner& tuner() const { return *tuner_; }
  std::string name() const { return tuner_->name(); }

 private:
  /// The per-batch path: WAL append + fsync, per-statement analysis with
  /// deterministic feedback interleaving, publication, cadence
  /// checkpointing. Drain path only.
  void AnalyzeBatch(std::vector<Statement>& batch, uint64_t first_seq,
                    size_t n, const std::vector<IngestMeta>& meta);
  /// End-of-stream epilogue: remaining feedback (all of it when
  /// `apply_all_feedback`, only due votes otherwise), final checkpoint
  /// (`force_checkpoint` overrides options.checkpoint_on_shutdown), and
  /// the finished handshake that releases WaitUntilAnalyzed.
  void DrainTail(bool apply_all_feedback, bool force_checkpoint);
  /// Applies ASAP feedback plus keyed feedback with after_seq < `seq`
  /// (with_asap) or after_seq <= `seq` (boundary application), journaling
  /// each applied vote at `boundary` (the analyzed count at application
  /// time) in the pre-statement (post=false) or post-statement (post=true)
  /// slot. Returns true if any vote was applied.
  bool ApplyFeedback(uint64_t seq, bool inclusive, bool with_asap,
                     uint64_t boundary, bool post);
  /// Applies everything still pending (drain path).
  bool ApplyAllFeedback();
  void Publish();

  // --- persist/ integration (drain path only) ---------------------------
  /// Recovery at Open: snapshot restore + journal suffix replay. Refuses
  /// (FailedPrecondition, every file untouched) a snapshot of another
  /// format version and a journal record that is intact but undecodable.
  Status Recover(RecoveryStats* stats);
  /// Appends one record through `fn`; a failure permanently disables
  /// journaling + checkpointing (durability degrades, service lives on).
  template <typename Fn>
  void JournalAppend(Fn&& fn);
  void SyncJournalIfDirty();
  /// Snapshot at a batch boundary once the cadence has elapsed (`force`
  /// for the shutdown checkpoint).
  void MaybeCheckpoint(bool force);
  /// After a checkpoint extended the covered horizon: rewrite the
  /// journal without the covered prefix and reopen the writer in the
  /// shifted LSN domain.
  void MaybeCompactJournal(uint64_t cover_lsn);
  void PushJournalMetrics();

  std::unique_ptr<Tuner> tuner_;
  TunerServiceOptions options_;
  IngestQueue queue_;
  /// Pool backing the tuner's index ids; needed (and non-null) only when
  /// checkpointing, to persist/verify the interning order.
  IndexPool* pool_ = nullptr;
  std::unique_ptr<persist::JournalWriter> journal_;
  bool journal_dirty_ = false;
  /// journal_lsn of the newest durable snapshot (0 while there is none).
  /// The next checkpoint makes it the older of the two retained
  /// snapshots, and so the compaction horizon.
  uint64_t newest_snapshot_lsn_ = 0;
  uint64_t last_checkpoint_analyzed_ = 0;
  bool have_checkpoint_ = false;
  /// Statements below this sequence are already in the journal (recovery
  /// requeued them); the drain skips their WAL append.
  uint64_t journal_stmt_skip_until_ = 0;
  ServiceMetrics metrics_;
  // Lifecycle state; guarded so Shutdown() is safe to race with the
  // destructor or another owner thread.
  std::mutex lifecycle_mu_;
  bool started_ = false;
  bool finished_ = false;  // fully drained (Shutdown) or evicted

  // Pending feedback: keyed entries apply right after their statement;
  // ASAP entries apply at the next statement boundary. FIFO within a key.
  mutable std::mutex feedback_mu_;
  std::multimap<uint64_t, std::pair<IndexSet, IndexSet>> pending_feedback_;
  std::vector<std::pair<IndexSet, IndexSet>> asap_feedback_;

  // Published snapshot (pointer swap under a short critical section).
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const RecommendationSnapshot> snapshot_;

  // Analysis progress for WaitUntilAnalyzed.
  mutable std::mutex progress_mu_;
  mutable std::condition_variable progress_cv_;
  uint64_t analyzed_ = 0;
  bool drain_done_ = false;

  mutable std::mutex history_mu_;
  std::vector<IndexSet> history_;
};

}  // namespace wfit::service

#endif  // WFIT_SERVICE_TUNER_SERVICE_H_

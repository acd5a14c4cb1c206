#include "service/tuner_service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>

#include "common/check.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "persist/snapshot.h"

namespace wfit::service {

namespace {
using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double UnixSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

constexpr char kJournalFile[] = "journal.wfj";

/// Statements whose end-to-end latency (ingest enqueue through snapshot
/// publication) reaches this emit one structured `slow_statement` record
/// with the per-stage breakdown.
constexpr uint64_t kSlowStatementNs = 250'000'000;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic uniform draw in [0, 1) for the sampling decision of
/// statement `seq`: a pure function of (seed, seq), so replay re-derives
/// the exact keep/drop outcome with no RNG state to persist.
double SampleUnit(uint64_t seed, uint64_t seq) {
  return static_cast<double>(SplitMix64(seed ^ seq) >> 11) * 0x1.0p-53;
}

const char* OverloadModeName(uint8_t mode) {
  switch (mode) {
    case 1:
      return "shedding";
    case 2:
      return "sampling";
    default:
      return "normal";
  }
}
}  // namespace

TunerService::TunerService(std::unique_ptr<Tuner> tuner,
                           TunerServiceOptions options)
    : tuner_(std::move(tuner)),
      options_(options),
      queue_(options.queue_capacity) {
  WFIT_CHECK(tuner_ != nullptr, "TunerService requires a tuner");
  WFIT_CHECK(options_.max_batch > 0, "max_batch must be positive");
  WFIT_CHECK(options_.checkpoint_dir.empty(),
             "checkpointing services must be created via TunerService::Open");
  WFIT_CHECK(options_.overload.sample_floor > 0.0 &&
                 options_.overload.sample_floor <= 1.0,
             "overload.sample_floor must be in (0, 1]");
  WFIT_CHECK(options_.overload.low_watermark <
                 options_.overload.high_watermark,
             "overload watermarks must satisfy low < high");
  sample_seed_ = options_.overload.sample_seed;
}

StatusOr<std::unique_ptr<TunerService>> TunerService::Open(
    std::unique_ptr<Tuner> tuner, IndexPool* pool,
    TunerServiceOptions options, RecoveryStats* recovery) {
  std::string dir = std::move(options.checkpoint_dir);
  options.checkpoint_dir.clear();
  auto service =
      std::make_unique<TunerService>(std::move(tuner), std::move(options));
  if (!dir.empty()) {
    WFIT_CHECK(pool != nullptr,
               "TunerService::Open: checkpointing requires the index pool");
    service->options_.checkpoint_dir = std::move(dir);
    service->pool_ = pool;
    RecoveryStats stats;
    WFIT_RETURN_IF_ERROR(service->Recover(&stats));
    if (recovery != nullptr) *recovery = stats;
  } else if (recovery != nullptr) {
    *recovery = RecoveryStats{};
  }
  return service;
}

Status TunerService::Recover(RecoveryStats* stats) {
  namespace fs = std::filesystem;
  const std::string& dir = options_.checkpoint_dir;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create checkpoint dir " + dir);
  }

  persist::SnapshotLoadResult loaded =
      persist::LoadLatestSnapshot(dir, tuner_.get(), pool_);
  stats->snapshot_loaded = loaded.loaded;
  stats->snapshot_analyzed = loaded.meta.analyzed;
  stats->snapshots_skipped = loaded.skipped;
  newest_snapshot_lsn_ = loaded.meta.journal_lsn;  // 0 on a cold start
  if (loaded.loaded) {
    // Overload-controller state at the snapshot point; journaled epoch
    // records past the snapshot LSN override it below as replay reaches
    // their effect sequences. A zero persisted seed (pre-overload
    // snapshot) keeps the configured per-tenant seed.
    overload_mode_ = loaded.meta.overload.mode;
    sample_rate_ = loaded.meta.overload.sample_rate;
    if (loaded.meta.overload.sample_seed != 0) {
      sample_seed_ = loaded.meta.overload.sample_seed;
    }
    dup_window_.assign(loaded.meta.overload.dup_window.begin(),
                       loaded.meta.overload.dup_window.end());
  }
  uint64_t analyzed = loaded.loaded ? loaded.meta.analyzed : 0;
  const uint64_t start_lsn = loaded.loaded ? loaded.meta.journal_lsn : 0;

  const std::string journal_path = (fs::path(dir) / kJournalFile).string();
  uint64_t valid_bytes = 0;
  uint64_t total_records = 0;
  // Set when the snapshot references journal records the file no longer
  // holds (journal deleted or truncated externally): the snapshot is
  // authoritative, nothing is replayed, and a fresh checkpoint below
  // re-stamps the LSN domain so future recoveries line up again.
  bool lsn_domain_mismatch = false;
  // Journaled intake past the durable trajectory point, re-queued below
  // (backed by `read`, which outlives the pushes).
  std::vector<const persist::JournalRecord*> requeue;
  StatusOr<persist::JournalReadResult> read =
      persist::ReadJournal(journal_path);
  // A compacted journal holds records (base_lsn, base_lsn + size]; the
  // writer and snapshot metas keep speaking absolute LSNs.
  const uint64_t journal_base = read.ok() ? read->base_lsn : 0;
  if (read.ok() && (start_lsn > journal_base + read->records.size() ||
                    start_lsn < journal_base)) {
    // Above the tail: records the snapshot references were lost. Below
    // the base: compaction dropped history this (older, stale) snapshot
    // still needs. Either way the snapshot alone is authoritative.
    valid_bytes = read->valid_bytes;
    total_records = journal_base + read->records.size();
    lsn_domain_mismatch = true;
  } else if (read.ok()) {
    valid_bytes = read->valid_bytes;
    total_records = journal_base + read->records.size();
    // Replay the suffix past the snapshot, exactly once. Statements appear
    // in sequence order; votes may be journaled after the batch's WAL
    // statement records, so they are split into a separate queue — but
    // application order among votes IS their journal order, so a simple
    // cursor over that queue, gated by each vote's (boundary, slot),
    // reproduces the original interleave exactly. kAnalyzed markers bound
    // the trajectory-bearing replay: a WAL statement record alone only
    // proves the statement was ingested, not that the votes at its
    // boundaries are durable, so statements past the last contiguous
    // marker are handed back to the queue as fresh intake instead (the
    // driver can still pin votes at those future boundaries).
    std::vector<const persist::JournalRecord*> statements;
    std::vector<const persist::JournalRecord*> votes;
    std::vector<const persist::JournalRecord*> epochs;
    uint64_t durable = analyzed;  // contiguous analyzed markers
    for (size_t i = static_cast<size_t>(start_lsn - journal_base);
         i < read->records.size(); ++i) {
      const persist::JournalRecord& r = read->records[i];
      switch (r.type) {
        case persist::JournalRecordType::kStatement:
          // Strictly increasing first-occurrence order: a crash after a
          // requeue can leave a statement WAL-journaled twice (identical
          // bytes); later copies are skipped.
          if (r.seq >= analyzed &&
              (statements.empty() || r.seq > statements.back()->seq)) {
            statements.push_back(&r);
          }
          break;
        case persist::JournalRecordType::kFeedback:
          votes.push_back(&r);
          break;
        case persist::JournalRecordType::kAnalyzed:
          if (r.seq == durable) ++durable;
          break;
        case persist::JournalRecordType::kEpoch:
          epochs.push_back(&r);
          break;
        case persist::JournalRecordType::kCompactionBase:
          break;  // framing metadata; never surfaced in records
      }
    }
    // Epochs take effect at their sequence; a restart after a requeue can
    // journal a second epoch at the same sequence, and the later record
    // wins — stable sort keeps journal order within equal sequences so
    // the cursor naturally applies them last-wins.
    std::stable_sort(epochs.begin(), epochs.end(),
                     [](const persist::JournalRecord* a,
                        const persist::JournalRecord* b) {
                       return a->seq < b->seq;
                     });
    size_t epoch_cursor = 0;
    auto adopt_epochs_through = [&](uint64_t seq) {
      while (epoch_cursor < epochs.size() &&
             epochs[epoch_cursor]->seq <= seq) {
        const persist::JournalRecord* e = epochs[epoch_cursor++];
        overload_mode_ = e->overload_mode;
        sample_rate_ = e->sample_rate;
        if (e->sample_seed != 0) sample_seed_ = e->sample_seed;
      }
    };
    size_t vote_cursor = 0;
    auto apply_vote = [&] {
      const persist::JournalRecord* v = votes[vote_cursor++];
      tuner_->Feedback(v->f_plus, v->f_minus);
      ++stats->replayed_feedback;
    };
    size_t si = 0;
    for (; si < statements.size(); ++si) {
      const persist::JournalRecord* r = statements[si];
      if (r->seq >= durable) break;  // unanalyzed intake: re-queued below
      if (r->seq != analyzed) break;  // gap: stop at the usable prefix
      // Pre-statement slot: everything applied before this statement ran.
      while (vote_cursor < votes.size() &&
             votes[vote_cursor]->boundary <= r->seq) {
        apply_vote();
      }
      // Mirror the live path's overload decision exactly: same epoch
      // state, same deterministic draw, same duplicate window — so the
      // recovered trajectory is bit-identical to the uninterrupted run
      // even through Shedding/Sampling phases.
      adopt_epochs_through(r->seq);
      bool keep = true;
      bool shed = false;
      if (options_.overload.enabled || overload_mode_ != 0) {
        keep = OverloadDecide(r->seq, r->statement, &shed);
      }
      if (keep) {
        ApplyStatementWeight();
        tuner_->AnalyzeQuery(r->statement);
      }
      ++analyzed;
      ++stats->replayed_statements;
      // Post-statement slot: votes keyed to this statement applied before
      // its recommendation was recorded.
      while (vote_cursor < votes.size() &&
             votes[vote_cursor]->boundary == analyzed &&
             votes[vote_cursor]->post) {
        apply_vote();
      }
      if (options_.record_history) {
        history_.push_back(tuner_->Recommendation());
      }
    }
    // Trailing votes (up to and including the final boundary).
    while (vote_cursor < votes.size() &&
           votes[vote_cursor]->boundary <= analyzed) {
      apply_vote();
    }
    // Journaled-but-unanalyzed intake (at most one batch): back into the
    // queue, contiguously from the recovery point.
    uint64_t next_intake = analyzed;
    for (; si < statements.size(); ++si) {
      if (statements[si]->seq != next_intake) break;
      requeue.push_back(statements[si]);
      ++next_intake;
    }
    // Epochs whose effect point lies beyond the replayed trajectory cover
    // the re-queued intake: the drain adopts each one when it reaches
    // that sequence, before considering any transition of its own.
    for (; epoch_cursor < epochs.size(); ++epoch_cursor) {
      const persist::JournalRecord* e = epochs[epoch_cursor];
      pending_epochs_.push_back(
          PendingEpoch{e->seq, e->overload_mode, e->sample_rate,
                       e->sample_seed});
    }
  } else if (read.status().code() != StatusCode::kNotFound) {
    return read.status();
  } else if (start_lsn > 0) {
    lsn_domain_mismatch = true;  // snapshot references a vanished journal
  }

  journal_ = std::make_unique<persist::JournalWriter>();
  WFIT_RETURN_IF_ERROR(journal_->Open(journal_path, valid_bytes,
                                      total_records));
  queue_.StartAt(analyzed);
  for (const persist::JournalRecord* r : requeue) {
    // At most one batch (≤ queue capacity), so these never block. A
    // producer replaying the workload may resubmit the same sequence
    // numbers; PushAt drops the duplicates.
    queue_.PushAt(r->seq, r->statement);
    ++stats->requeued_statements;
  }
  // Requeued statements are already in the journal; the drain must not
  // WAL them a second time when it pops them.
  journal_stmt_skip_until_ = analyzed + requeue.size();
  analyzed_ = analyzed;
  stats->analyzed = analyzed;
  last_checkpoint_analyzed_ = loaded.loaded ? loaded.meta.analyzed : 0;
  have_checkpoint_ = loaded.loaded;
  if (lsn_domain_mismatch) {
    obs::Log(obs::LogLevel::kWarn, "recovery.lsn_mismatch")
        .U64("snapshot_lsn", start_lsn)
        .U64("journal_records", total_records);
    // Overwrite the newest snapshot with one whose journal_lsn matches the
    // actual file, so the next recovery replays from a consistent base.
    // The overwritten snapshot no longer counts toward compaction.
    have_checkpoint_ = false;
    newest_snapshot_lsn_ = 0;
    MaybeCheckpoint(/*force=*/true);
  }
  metrics_.SetRecovery(stats->snapshot_loaded, stats->snapshots_skipped,
                       stats->replayed_statements, stats->replayed_feedback);
  metrics_.SetOverloadState(overload_mode_, sample_rate_);
  PushJournalMetrics();
  return Status::Ok();
}

TunerService::~TunerService() {
  Shutdown();
}

void TunerService::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  WFIT_CHECK(!started_, "TunerService::Start called twice");
  started_ = true;
  Publish();  // initial configuration (recovered state after Open)
}

void TunerService::Shutdown() {
  queue_.Close();
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!started_ || finished_) return;
  finished_ = true;
  while (ProcessBatch() > 0) {
  }
  // Votes cast after the final statement still take effect — except in
  // crash-realistic mode (checkpoint_on_shutdown=false), where applying a
  // future-keyed vote early would journal it at a boundary a real crash
  // could never have reached; it dies un-applied instead, and recovery
  // re-pins it.
  DrainTail(/*apply_all_feedback=*/options_.checkpoint_on_shutdown,
            /*force_checkpoint=*/options_.checkpoint_on_shutdown);
}

size_t TunerService::ProcessBatch(size_t max_statements) {
  max_statements = std::clamp<size_t>(max_statements, 1, options_.max_batch);
  std::vector<Statement> batch;
  batch.reserve(max_statements);
  std::vector<IngestMeta> meta;
  meta.reserve(max_statements);
  uint64_t first_seq = 0;
  size_t n = queue_.TryPopBatch(&batch, max_statements, &first_seq, &meta);
  if (n > 0) AnalyzeBatch(batch, first_seq, n, meta);
  return n;
}

TunerService::PendingVotes TunerService::CloseForEviction() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    WFIT_CHECK(started_, "CloseForEviction on a service never started");
    WFIT_CHECK(!finished_, "CloseForEviction on a finished service");
    finished_ = true;
  }
  queue_.Close();
  while (ProcessBatch() > 0) {
  }
  // Only votes that are already due: ASAP votes plus votes keyed to
  // statements this incarnation analyzed. Future-keyed votes must survive
  // the eviction un-applied.
  const uint64_t done = analyzed();
  bool fed = ApplyFeedback(done, /*inclusive=*/false, /*with_asap=*/true,
                           /*boundary=*/done, /*post=*/true);
  if (fed) Publish();
  PendingVotes future;
  {
    std::lock_guard<std::mutex> lock(feedback_mu_);
    future.swap(pending_feedback_);
  }
  DrainTail(/*apply_all_feedback=*/false, /*force_checkpoint=*/true);
  return future;
}

bool TunerService::Submit(Statement stmt) {
  if (!queue_.Push(std::move(stmt))) return false;
  metrics_.OnSubmit();
  return true;
}

bool TunerService::TrySubmit(Statement stmt) {
  if (!queue_.TryPush(std::move(stmt))) {
    metrics_.OnSubmitRejected();
    return false;
  }
  metrics_.OnSubmit();
  return true;
}

bool TunerService::SubmitAt(uint64_t seq, Statement stmt) {
  if (!queue_.PushAt(seq, std::move(stmt))) return false;
  metrics_.OnSubmit();
  return true;
}

PushAtResult TunerService::TrySubmitAt(uint64_t seq, Statement stmt) {
  PushAtResult result = queue_.TryPushAt(seq, std::move(stmt));
  switch (result) {
    case PushAtResult::kAccepted:
      metrics_.OnSubmit();
      break;
    case PushAtResult::kWouldBlock:
      metrics_.OnSubmitRejected();
      break;
    case PushAtResult::kDuplicate:
    case PushAtResult::kClosed:
      break;
  }
  return result;
}

PushAtResult TunerService::SubmitWithDeadline(
    Statement stmt, std::chrono::steady_clock::time_point deadline) {
  PushAtResult result = queue_.PushWithDeadline(std::move(stmt), deadline);
  if (result == PushAtResult::kAccepted) {
    metrics_.OnSubmit();
  } else if (result == PushAtResult::kWouldBlock) {
    metrics_.OnSubmitRejected();
  }
  return result;
}

PushAtResult TunerService::SubmitAtWithDeadline(
    uint64_t seq, Statement stmt,
    std::chrono::steady_clock::time_point deadline) {
  PushAtResult result =
      queue_.PushAtWithDeadline(seq, std::move(stmt), deadline);
  if (result == PushAtResult::kAccepted) {
    metrics_.OnSubmit();
  } else if (result == PushAtResult::kWouldBlock) {
    metrics_.OnSubmitRejected();
  }
  return result;
}

void TunerService::Feedback(IndexSet f_plus, IndexSet f_minus) {
  std::lock_guard<std::mutex> lock(feedback_mu_);
  asap_feedback_.emplace_back(std::move(f_plus), std::move(f_minus));
}

void TunerService::FeedbackAfter(uint64_t after_seq, IndexSet f_plus,
                                 IndexSet f_minus) {
  std::lock_guard<std::mutex> lock(feedback_mu_);
  pending_feedback_.emplace(after_seq,
                            std::make_pair(std::move(f_plus),
                                           std::move(f_minus)));
}

std::shared_ptr<const RecommendationSnapshot> TunerService::Recommendation()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

bool TunerService::WaitUntilAnalyzed(uint64_t n) const {
  std::unique_lock<std::mutex> lock(progress_mu_);
  progress_cv_.wait(lock, [&] { return analyzed_ >= n || drain_done_; });
  return analyzed_ >= n;
}

uint64_t TunerService::analyzed() const {
  std::lock_guard<std::mutex> lock(progress_mu_);
  return analyzed_;
}

MetricsSnapshot TunerService::Metrics() const {
  MetricsSnapshot s = metrics_.Snapshot();
  s.queue_depth = queue_.depth();
  s.queue_capacity = queue_.capacity();
  s.queue_high_water = queue_.high_water();
  s.push_waits = queue_.push_waits();
  return s;
}

std::vector<IndexSet> TunerService::History() const {
  std::lock_guard<std::mutex> lock(history_mu_);
  return history_;
}

bool TunerService::ApplyFeedback(uint64_t seq, bool inclusive,
                                 bool with_asap, uint64_t boundary,
                                 bool post) {
  // Collect under the lock, apply outside it: Tuner::Feedback can be
  // expensive and producers must not block on it when casting votes.
  std::vector<std::pair<IndexSet, IndexSet>> to_apply;
  {
    std::lock_guard<std::mutex> lock(feedback_mu_);
    if (with_asap) {
      to_apply.swap(asap_feedback_);
    }
    auto end = inclusive ? pending_feedback_.upper_bound(seq)
                         : pending_feedback_.lower_bound(seq);
    for (auto it = pending_feedback_.begin(); it != end; ++it) {
      to_apply.push_back(std::move(it->second));
    }
    pending_feedback_.erase(pending_feedback_.begin(), end);
  }
  for (auto& [f_plus, f_minus] : to_apply) {
    // WAL: the vote's effect boundary hits the journal before the vote
    // mutates the tuner, so replay applies it at exactly this point.
    JournalAppend([&](persist::JournalWriter* j) {
      return j->AppendFeedback(boundary, post, f_plus, f_minus);
    });
    tuner_->Feedback(f_plus, f_minus);
    metrics_.OnFeedback();
  }
  return !to_apply.empty();
}

void TunerService::AdoptEpochsUpTo(uint64_t seq) {
  bool changed = false;
  while (pending_epoch_cursor_ < pending_epochs_.size() &&
         pending_epochs_[pending_epoch_cursor_].seq <= seq) {
    const PendingEpoch& e = pending_epochs_[pending_epoch_cursor_++];
    overload_mode_ = e.mode;
    sample_rate_ = e.rate;
    if (e.seed != 0) sample_seed_ = e.seed;
    changed = true;
  }
  if (pending_epoch_cursor_ == pending_epochs_.size() &&
      !pending_epochs_.empty()) {
    pending_epochs_.clear();
    pending_epoch_cursor_ = 0;
  }
  // Adopted epochs were already counted as transitions when first
  // journaled; only the gauges move.
  if (changed) metrics_.SetOverloadState(overload_mode_, sample_rate_);
}

void TunerService::MaybeTransition(uint64_t first_seq) {
  if (!options_.overload.enabled) return;
  const double fill = static_cast<double>(queue_.depth()) /
                      static_cast<double>(queue_.capacity());
  uint8_t mode = overload_mode_;
  double rate = sample_rate_;
  if (fill >= options_.overload.high_watermark) {
    // One degradation step per batch: shed duplicates first (cheap, only
    // redundant evidence is lost), then sample, then tighten the rate.
    if (mode == 0) {
      mode = 1;
    } else if (mode == 1) {
      mode = 2;
      rate = std::max(options_.overload.sample_floor, 0.5);
    } else {
      rate = std::max(options_.overload.sample_floor, rate * 0.5);
    }
  } else if (fill <= options_.overload.low_watermark) {
    // Hysteresis: recovery only below the low watermark, one step per
    // batch, through the same states in reverse.
    if (mode == 2) {
      rate = std::min(1.0, rate * 2.0);
      if (rate >= 1.0) {
        rate = 1.0;
        mode = 1;
      }
    } else if (mode == 1) {
      mode = 0;
    }
  }
  if (mode == overload_mode_ && rate == sample_rate_) return;
  overload_mode_ = mode;
  sample_rate_ = rate;
  // The epoch hits the journal before this batch's statements are
  // analyzed (same pre-analysis fsync), so replay always knows the mode
  // every durable statement was decided under.
  JournalAppend([&](persist::JournalWriter* j) {
    return j->AppendEpoch(first_seq, mode, rate, sample_seed_);
  });
  metrics_.OnOverloadTransition(mode, rate);
  obs::RecordInstant("overload.transition", OverloadModeName(mode));
  obs::Log(obs::LogLevel::kWarn, "overload.transition")
      .Str("mode", OverloadModeName(mode))
      .Dbl("sample_rate", rate)
      .Dbl("queue_fill", fill)
      .U64("seq", first_seq);
}

bool TunerService::OverloadDecide(uint64_t seq, const Statement& stmt,
                                  bool* shed) {
  *shed = false;
  if (overload_mode_ == 1) {
    const uint64_t fp = stmt.Fingerprint();
    for (uint64_t seen : dup_window_) {
      if (seen == fp) {
        *shed = true;
        return false;
      }
    }
  } else if (overload_mode_ == 2) {
    // Uniform sampling, deliberately without the duplicate filter: the
    // 1/rate weight is only an unbiased estimator when every arrival has
    // the same keep probability.
    if (SampleUnit(sample_seed_, seq) >= sample_rate_) return false;
  }
  // The duplicate window tracks kept statements in every mode, so
  // entering Shedding starts with a warm window.
  if (options_.overload.dup_window > 0) {
    dup_window_.push_back(stmt.Fingerprint());
    while (dup_window_.size() > options_.overload.dup_window) {
      dup_window_.pop_front();
    }
  }
  return true;
}

void TunerService::ApplyStatementWeight() {
  const double w = overload_mode_ == 2 ? 1.0 / sample_rate_ : 1.0;
  if (w != current_weight_) {
    tuner_->SetStatementWeight(w);
    current_weight_ = w;
  }
}

bool TunerService::ApplyAllFeedback() {
  return ApplyFeedback(std::numeric_limits<uint64_t>::max(),
                       /*inclusive=*/true, /*with_asap=*/true,
                       /*boundary=*/analyzed_, /*post=*/true);
}

template <typename Fn>
void TunerService::JournalAppend(Fn&& fn) {
  if (journal_ == nullptr) return;
  Status st = fn(journal_.get());
  if (!st.ok()) {
    // Durability degrades but the service stays up; a stale journal tail
    // simply bounds how far a future recovery can replay.
    obs::Log(obs::LogLevel::kError, "journal.write_failed")
        .Str("error", st.ToString());
    metrics_.OnJournalFailure();
    journal_.reset();  // closes the writer
    journal_dirty_ = false;
    return;
  }
  journal_dirty_ = true;
}

void TunerService::SyncJournalIfDirty() {
  if (journal_ == nullptr || !journal_dirty_) return;
  Status st = journal_->Sync();
  if (st.ok()) {
    // Counted here, not by the writer: compaction replaces the writer, and
    // the exported counter must survive that.
    metrics_.OnJournalSync();
  } else {
    obs::Log(obs::LogLevel::kError, "journal.fsync_failed")
        .Str("error", st.ToString());
    metrics_.OnJournalFailure();
    journal_.reset();  // closes the writer
  }
  journal_dirty_ = false;
}

void TunerService::MaybeCheckpoint(bool force) {
  if (journal_ == nullptr || pool_ == nullptr) return;
  const uint64_t analyzed = analyzed_;  // the drain path owns all writes
  if (have_checkpoint_ && analyzed == last_checkpoint_analyzed_) return;
  if (!force &&
      analyzed - last_checkpoint_analyzed_ <
          options_.checkpoint_every_statements) {
    return;
  }
  // The snapshot's journal_lsn must cover everything applied so far, and
  // the covered records must be durable before the snapshot supersedes
  // them.
  SyncJournalIfDirty();
  if (journal_ == nullptr) return;  // sync failure disabled persistence
  persist::SnapshotMeta meta;
  meta.analyzed = analyzed;
  meta.journal_lsn = journal_->lsn();
  meta.overload.mode = overload_mode_;
  meta.overload.sample_rate = sample_rate_;
  meta.overload.sample_seed = sample_seed_;
  meta.overload.dup_window.assign(dup_window_.begin(), dup_window_.end());
  obs::SpanGuard span("checkpoint");
  obs::StageTimer timer(obs::Stage::kCheckpointWrite);
  StatusOr<uint64_t> bytes =
      persist::WriteSnapshot(options_.checkpoint_dir, *tuner_, *pool_, meta);
  if (!bytes.ok()) {
    metrics_.OnCheckpointFailure();
    obs::Log(obs::LogLevel::kWarn, "checkpoint.failed")
        .U64("analyzed", analyzed)
        .Str("error", bytes.status().ToString());
    return;
  }
  last_checkpoint_analyzed_ = analyzed;
  have_checkpoint_ = true;
  metrics_.OnCheckpoint(analyzed, *bytes, UnixSeconds());
  // Compact only behind two durable snapshots: a lone snapshot that later
  // proves corrupt must still have its journal prefix to replay.
  const uint64_t cover_lsn = newest_snapshot_lsn_;
  newest_snapshot_lsn_ = meta.journal_lsn;
  if (cover_lsn > 0) MaybeCompactJournal(cover_lsn);
}

void TunerService::MaybeCompactJournal(uint64_t cover_lsn) {
  namespace fs = std::filesystem;
  if (journal_ == nullptr) return;
  if (journal_->bytes() < options_.journal_compact_min_bytes) return;
  const std::string path =
      (fs::path(options_.checkpoint_dir) / kJournalFile).string();
  // The rewrite needs the writer closed — everything durable already,
  // since a checkpoint just synced.
  const uint64_t old_bytes = journal_->bytes();
  journal_.reset();  // closes the writer
  StatusOr<persist::CompactionResult> compacted =
      persist::CompactJournal(path, cover_lsn);
  if (!compacted.ok()) {
    obs::Log(obs::LogLevel::kWarn, "journal.compact_failed")
        .Str("error", compacted.status().ToString());
    // The original file is intact (compaction replaces it only via
    // rename); reopen by re-reading its tail.
    StatusOr<persist::JournalReadResult> read = persist::ReadJournal(path);
    if (read.ok()) {
      journal_ = std::make_unique<persist::JournalWriter>();
      Status st = journal_->Open(path, read->valid_bytes,
                                 read->base_lsn + read->records.size());
      if (!st.ok()) journal_.reset();
    }
    if (journal_ == nullptr) metrics_.OnJournalFailure();
    return;
  }
  journal_ = std::make_unique<persist::JournalWriter>();
  Status st = journal_->Open(path, compacted->valid_bytes,
                             compacted->base_lsn + compacted->record_count);
  if (!st.ok()) {
    obs::Log(obs::LogLevel::kError, "journal.reopen_failed")
        .Str("error", st.ToString());
    metrics_.OnJournalFailure();
    journal_.reset();
    return;
  }
  metrics_.OnJournalCompaction(old_bytes > compacted->new_bytes
                                   ? old_bytes - compacted->new_bytes
                                   : 0);
  obs::Log(obs::LogLevel::kInfo, "journal.compacted")
      .U64("old_bytes", old_bytes)
      .U64("new_bytes", compacted->new_bytes)
      .U64("dropped_records", compacted->dropped_records)
      .U64("base_lsn", compacted->base_lsn);
}

void TunerService::PushJournalMetrics() {
  if (journal_ == nullptr) return;
  metrics_.SetJournal(journal_->lsn(), journal_->bytes());
}

void TunerService::Publish() {
  auto snapshot = std::make_shared<RecommendationSnapshot>();
  snapshot->configuration = tuner_->Recommendation();
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    snapshot->analyzed = analyzed_;
  }
  metrics_.OnPublish();
  snapshot->version = metrics_.snapshot_version();
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snapshot);
}

void TunerService::AnalyzeBatch(std::vector<Statement>& batch,
                                uint64_t first_seq, size_t n,
                                const std::vector<IngestMeta>& meta) {
  // Stage timers anywhere below this frame (IBG build, what-if probes,
  // checkpoint writes) attribute to this service.
  obs::ScopedStageSink stage_sink(&metrics_);
  metrics_.OnBatch(n);
  // Epochs journaled by a previous incarnation for this (re-queued)
  // intake take effect before any live transition is considered, so live
  // and replayed decisions always agree.
  AdoptEpochsUpTo(first_seq);
  MaybeTransition(first_seq);
  const uint64_t pop_ns = obs::NowNs();
  // WAL spans record under the first statement's submitting trace (the
  // one fsync covers the whole batch).
  obs::ScopedTraceContext batch_ctx(meta.empty() ? obs::TraceContext{}
                                                 : meta[0].ctx);
  {
    obs::SpanGuard wal_span("wal.append");
    // Write-ahead: the whole batch hits the journal (one fsync) before any
    // of it is analyzed, so a crash can lose unanalyzed intake but never
    // analyzed statements. Statements requeued by recovery are already in
    // the journal and are not re-appended.
    for (size_t i = 0; i < n; ++i) {
      const uint64_t seq = first_seq + i;
      if (seq < journal_stmt_skip_until_) continue;
      JournalAppend([&](persist::JournalWriter* j) {
        return j->AppendStatement(seq, batch[i]);
      });
    }
  }
  {
    // One fsync covers the whole batch: every statement analyzed below is
    // already durable.
    obs::SpanGuard fsync_span("wal.fsync");
    SyncJournalIfDirty();
  }
  for (size_t i = 0; i < n; ++i) {
    uint64_t seq = first_seq + i;
    const IngestMeta stmt_meta = i < meta.size() ? meta[i] : IngestMeta{};
    if (stmt_meta.enqueue_ns != 0 && pop_ns > stmt_meta.enqueue_ns) {
      obs::RecordStage(obs::Stage::kQueueWait, pop_ns - stmt_meta.enqueue_ns);
    }
    // The submitting RPC's context makes this statement's analysis spans
    // children of the client's submit span across the process boundary.
    obs::ScopedTraceContext stmt_ctx(stmt_meta.ctx);
    // Votes that arrived since the last boundary (ASAP, or keyed to an
    // already-analyzed statement) apply before this statement — i.e. at
    // boundary `seq`.
    bool fed = ApplyFeedback(seq, /*inclusive=*/false, /*with_asap=*/true,
                             /*boundary=*/seq, /*post=*/false);
    // Overload decision at analysis time: a dropped statement keeps its
    // WAL record, vote slots, analyzed marker and publication — only
    // AnalyzeQuery is skipped, so contiguity and exactly-once hold while
    // the actual bottleneck is relieved.
    AdoptEpochsUpTo(seq);
    bool keep = true;
    bool shed = false;
    if (options_.overload.enabled || overload_mode_ != 0) {
      keep = OverloadDecide(seq, batch[i], &shed);
    }
    Clock::time_point start = Clock::now();
    double analyze_us = 0.0;
    if (keep) {
      ApplyStatementWeight();
      {
        obs::SpanGuard analyze_span("analyze");
        if (analyze_span.trace_id() != 0) {
          analyze_span.SetDetail("seq " + std::to_string(seq));
        }
        tuner_->AnalyzeQuery(batch[i]);
      }
      analyze_us = MicrosSince(start);
      metrics_.OnAnalyzed(analyze_us);
      metrics_.SetRepartitions(tuner_->RepartitionCount());
      WhatIfCacheCounters cache = tuner_->WhatIfCache();
      metrics_.SetWhatIfCache(cache.hits, cache.misses, cache.cross_hits);
    } else {
      metrics_.OnOverloadDrop(shed);
      obs::RecordInstant(shed ? "overload.shed" : "overload.sample_drop",
                         "seq " + std::to_string(seq));
    }
    // Deterministic interleave: votes keyed to this statement apply
    // right after it, before its recommendation is recorded.
    fed |= ApplyFeedback(seq, /*inclusive=*/true, /*with_asap=*/false,
                         /*boundary=*/seq + 1, /*post=*/true);
    (void)fed;
    // The marker seals this statement's effects (its votes precede it in
    // the journal): recovery replays the trajectory only through the
    // last contiguous durable marker, so a crash can never replay past
    // a boundary whose vote was still in memory. Synced once per batch —
    // an unsynced tail rolls the recovery point back, never forward.
    JournalAppend([&](persist::JournalWriter* j) {
      return j->AppendAnalyzed(seq);
    });
    {
      std::lock_guard<std::mutex> lock(progress_mu_);
      analyzed_ = seq + 1;
    }
    if (options_.record_history) {
      std::lock_guard<std::mutex> lock(history_mu_);
      history_.push_back(tuner_->Recommendation());
    }
    {
      obs::SpanGuard publish_span("publish");
      Publish();
    }
    progress_cv_.notify_all();
    if (stmt_meta.enqueue_ns != 0) {
      const uint64_t end_ns = obs::NowNs();
      const uint64_t e2e_ns =
          end_ns > stmt_meta.enqueue_ns ? end_ns - stmt_meta.enqueue_ns : 0;
      if (e2e_ns >= kSlowStatementNs) {
        obs::Log(obs::LogLevel::kWarn, "slow_statement")
            .U64("seq", seq)
            .Dbl("total_ms", static_cast<double>(e2e_ns) / 1e6)
            .Dbl("queue_wait_ms",
                 static_cast<double>(pop_ns - stmt_meta.enqueue_ns) / 1e6)
            .Dbl("analyze_ms", analyze_us / 1e3)
            .U64("batch", n)
            .U64("repartitions", tuner_->RepartitionCount());
      }
    }
  }
  // Trailing votes and the analyzed markers become durable before the
  // consumer moves on.
  SyncJournalIfDirty();
  MaybeCheckpoint(/*force=*/false);
  PushJournalMetrics();
}

void TunerService::DrainTail(bool apply_all_feedback, bool force_checkpoint) {
  if (apply_all_feedback && ApplyAllFeedback()) Publish();
  SyncJournalIfDirty();
  MaybeCheckpoint(force_checkpoint);
  PushJournalMetrics();
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    drain_done_ = true;
  }
  progress_cv_.notify_all();  // waiters must not hang once we stop
}

}  // namespace wfit::service

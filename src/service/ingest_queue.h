// IngestQueue: a bounded, sequence-ordered MPSC queue of workload
// statements — the intake of the online tuning service.
//
// Every statement occupies a slot determined by its sequence number in a
// fixed-size ring. Producers either take a ticket implicitly (Push), which
// sequences statements in arrival order, or supply an explicit sequence
// number (PushAt), which lets N threads replay a partitioned workload while
// the consumer still drains it in the exact original order. The consumer
// (TryPopBatch) only ever releases the contiguous prefix, so analysis order
// is a pure function of the sequence numbers — never of thread scheduling.
//
// The consumer never blocks: it is scheduled from outside (the tenant
// router's drain threads) and asks CanPop() whether a pop would deliver.
//
// Backpressure: a producer whose sequence number lies more than `capacity`
// slots ahead of the consumer blocks (Push/PushAt) or is refused (TryPush).
// Memory is therefore bounded by `capacity` statements regardless of how
// many producers race.
#ifndef WFIT_SERVICE_INGEST_QUEUE_H_
#define WFIT_SERVICE_INGEST_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "obs/trace.h"
#include "workload/statement.h"

namespace wfit::service {

/// Per-statement intake metadata carried through the queue: when the
/// statement was enqueued (for the queue-wait stage histogram) and the
/// producer's trace context at push time (so the drain path's spans
/// stitch under the RPC that submitted the statement).
struct IngestMeta {
  uint64_t enqueue_ns = 0;  // obs::NowNs() at push
  obs::TraceContext ctx;    // zero ids when the producer was untraced
};

/// Outcome of a non-blocking explicit-sequence push (TryPushAt). The
/// network front end maps these onto wire responses: kWouldBlock becomes a
/// retryable Busy, kDuplicate is a success (exactly-once semantics — the
/// statement is already covered), kClosed is a terminal error.
enum class PushAtResult {
  kAccepted,
  kDuplicate,
  kWouldBlock,
  kClosed,
};

class IngestQueue {
 public:
  explicit IngestQueue(size_t capacity);

  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  /// Enqueues with the next implicit sequence number (arrival order).
  /// Blocks while the ring is full. Returns false iff the queue is closed.
  bool Push(Statement stmt);

  /// Enqueues at an explicit sequence number. `seq` must not have been used
  /// before; the contiguous delivery contract requires that every sequence
  /// number below the highest pushed one is eventually pushed exactly once.
  /// Mixing PushAt with implicit Push in one queue is not supported.
  /// Blocks while `seq` is ≥ capacity slots ahead of the consumer. Returns
  /// false iff the queue is closed, `seq` was already delivered, or `seq`
  /// is already buffered (a recovered workload re-submitted by a producer
  /// is dropped, first push wins — the exactly-once contract).
  bool PushAt(uint64_t seq, Statement stmt);

  /// Non-blocking Push: returns false (without enqueueing) if the ring is
  /// full or the queue is closed.
  bool TryPush(Statement stmt);

  /// Non-blocking PushAt: never waits for ring space. kWouldBlock when
  /// `seq` is ≥ capacity slots ahead of the consumer (the caller should
  /// retry later — backpressure without blocking an event loop), kDuplicate
  /// when `seq` was already delivered or is already buffered (dropped,
  /// first push wins), kClosed after Close().
  PushAtResult TryPushAt(uint64_t seq, Statement stmt);

  /// Bounded-wait Push: blocks for ring space at most until `deadline`,
  /// then gives up with kWouldBlock. The implicit ticket taken on entry is
  /// tombstoned on timeout (the consumer drains past it), so a timed-out
  /// producer can never wedge the sequence domain — the fix for the
  /// unbounded full-queue wait that could block a producer forever while
  /// its shard sat evicted.
  PushAtResult PushWithDeadline(Statement stmt,
                                std::chrono::steady_clock::time_point deadline);

  /// Bounded-wait PushAt: same give-up-at-deadline semantics, but the
  /// caller owns `seq` and may retry it later, so no tombstone is left
  /// (identical contract to TryPushAt's kWouldBlock).
  PushAtResult PushAtWithDeadline(
      uint64_t seq, Statement stmt,
      std::chrono::steady_clock::time_point deadline);

  /// Repositions the sequence domain so the first delivered statement is
  /// `seq` (recovery: statements below `seq` were already analyzed from
  /// the journal). Must be called before any push.
  void StartAt(uint64_t seq);

  /// Appends up to `max_batch` statements of the contiguous sequence
  /// prefix that is deliverable right now to `*out` and returns the count:
  /// 0 when nothing is deliverable yet (a predecessor sequence is missing)
  /// or the queue is drained. Never blocks. The sequence number of the
  /// first popped statement is written to `*first_seq` (if non-null).
  /// When `meta` is non-null, one IngestMeta per popped statement is
  /// appended to it (parallel to `*out`).
  size_t TryPopBatch(std::vector<Statement>* out, size_t max_batch,
                     uint64_t* first_seq = nullptr,
                     std::vector<IngestMeta>* meta = nullptr);

  /// True when TryPopBatch would deliver at least one statement now — the
  /// consumer's only wake predicate. Looks past tombstones at the head.
  bool CanPop() const;

  /// Closes the intake: subsequent pushes fail, and TryPopBatch drains
  /// what remains of the contiguous prefix.
  void Close();

  size_t capacity() const { return capacity_; }
  bool closed() const;

  /// Number of statements currently buffered (including any non-contiguous
  /// ones waiting for a predecessor).
  size_t depth() const;
  /// Maximum depth ever observed.
  size_t high_water() const;
  /// Blocking pushes that had to wait for space at least once.
  uint64_t push_waits() const;
  uint64_t total_pushed() const;
  /// Next sequence number the consumer will deliver.
  uint64_t next_pop_seq() const;

 private:
  struct Slot {
    Statement stmt;
    IngestMeta meta;
  };
  bool PushLocked(std::unique_lock<std::mutex>& lock, uint64_t seq,
                  Statement&& stmt, bool drop_duplicate,
                  const std::chrono::steady_clock::time_point* deadline =
                      nullptr,
                  bool abandon_on_timeout = false, bool* timed_out = nullptr);
  size_t PopBatchLocked(std::vector<Statement>* out, size_t max_batch,
                        uint64_t* first_seq, std::vector<IngestMeta>* meta);
  bool SlotReady(uint64_t seq) const {
    return ring_[seq % capacity_].has_value();
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::vector<std::optional<Slot>> ring_;
  uint64_t next_ticket_ = 0;   // next implicit sequence number
  uint64_t next_pop_seq_ = 0;  // consumer cursor
  size_t buffered_ = 0;        // slots currently occupied
  /// Sequence numbers whose push was abandoned — at Close(), or when a
  /// deadline push timed out after taking its implicit ticket. The
  /// consumer drains past them.
  std::set<uint64_t> abandoned_;
  bool closed_ = false;
  // Stats.
  size_t high_water_ = 0;
  uint64_t push_waits_ = 0;
  uint64_t total_pushed_ = 0;
};

}  // namespace wfit::service

#endif  // WFIT_SERVICE_INGEST_QUEUE_H_

#include "service/ingest_queue.h"

#include "common/check.h"

namespace wfit::service {

IngestQueue::IngestQueue(size_t capacity) : capacity_(capacity) {
  WFIT_CHECK(capacity > 0, "IngestQueue capacity must be positive");
  ring_.resize(capacity);
}

bool IngestQueue::PushLocked(std::unique_lock<std::mutex>& lock, uint64_t seq,
                             Statement&& stmt, bool drop_duplicate) {
  // A producer may enter while its slot is still occupied by an
  // undelivered predecessor lap; wait until the slot's lap is ours.
  bool waited = false;
  while (!closed_ && seq >= next_pop_seq_ + capacity_) {
    waited = true;
    not_full_.wait(lock);
  }
  if (closed_) {
    // The ticket was already assigned; leave a tombstone so the consumer
    // can drain past the hole instead of stranding later accepted pushes.
    abandoned_.insert(seq);
    return false;
  }
  if (waited) ++push_waits_;
  if (ring_[seq % capacity_].has_value()) {
    // Within the window the slot can only hold `seq` itself. Explicit
    // sequence numbers tolerate duplicates (recovery requeues a journaled
    // suffix that producers may also resubmit — first wins); implicit
    // ticketed pushes cannot collide, so there it is a caller bug.
    WFIT_CHECK(drop_duplicate, "IngestQueue: duplicate sequence number");
    return false;
  }
  Slot slot;
  slot.stmt = std::move(stmt);
  slot.meta.enqueue_ns = obs::NowNs();
  slot.meta.ctx = obs::CurrentTraceContext();
  ring_[seq % capacity_] = std::move(slot);
  ++buffered_;
  ++total_pushed_;
  if (buffered_ > high_water_) high_water_ = buffered_;
  return true;
}

bool IngestQueue::Push(Statement stmt) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return false;
  // Take the ticket up front so concurrent implicit pushes get distinct
  // slots; the blocked producer keeps its place in sequence order.
  uint64_t seq = next_ticket_++;
  return PushLocked(lock, seq, std::move(stmt), /*drop_duplicate=*/false);
}

bool IngestQueue::PushAt(uint64_t seq, Statement stmt) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return false;
  // An already-delivered sequence number is refused, not re-queued: after
  // recovery a producer may replay a workload prefix the journal already
  // covered, and exactly-once analysis means dropping those here.
  if (seq < next_pop_seq_) return false;
  if (seq >= next_ticket_) next_ticket_ = seq + 1;
  return PushLocked(lock, seq, std::move(stmt), /*drop_duplicate=*/true);
}

void IngestQueue::StartAt(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  WFIT_CHECK(total_pushed_ == 0 && buffered_ == 0,
             "IngestQueue::StartAt requires an unused queue");
  next_ticket_ = seq;
  next_pop_seq_ = seq;
}

bool IngestQueue::TryPush(Statement stmt) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_ || next_ticket_ >= next_pop_seq_ + capacity_) return false;
  uint64_t seq = next_ticket_++;
  return PushLocked(lock, seq, std::move(stmt), /*drop_duplicate=*/false);
}

PushAtResult IngestQueue::TryPushAt(uint64_t seq, Statement stmt) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return PushAtResult::kClosed;
  if (seq < next_pop_seq_) return PushAtResult::kDuplicate;
  if (seq >= next_pop_seq_ + capacity_) return PushAtResult::kWouldBlock;
  if (ring_[seq % capacity_].has_value()) return PushAtResult::kDuplicate;
  if (seq >= next_ticket_) next_ticket_ = seq + 1;
  // Preconditions above guarantee PushLocked cannot wait or collide.
  PushLocked(lock, seq, std::move(stmt), /*drop_duplicate=*/true);
  return PushAtResult::kAccepted;
}

size_t IngestQueue::TryPopBatch(std::vector<Statement>* out, size_t max_batch,
                                uint64_t* first_seq,
                                std::vector<IngestMeta>* meta) {
  WFIT_CHECK(out != nullptr && max_batch > 0,
             "TryPopBatch requires an output vector and a positive batch "
             "size");
  std::lock_guard<std::mutex> lock(mu_);
  return PopBatchLocked(out, max_batch, first_seq, meta);
}

size_t IngestQueue::PopBatchLocked(std::vector<Statement>* out,
                                   size_t max_batch, uint64_t* first_seq,
                                   std::vector<IngestMeta>* meta) {
  size_t popped = 0;
  while (popped < max_batch) {
    // Tombstones from pushes abandoned at close are skipped, so accepted
    // statements behind them still drain. Only at the start of a batch:
    // delivered batches stay sequence-contiguous.
    if (auto it = abandoned_.find(next_pop_seq_); it != abandoned_.end()) {
      if (popped > 0) break;
      abandoned_.erase(it);
      ++next_pop_seq_;
      continue;
    }
    if (!SlotReady(next_pop_seq_)) break;
    Slot& slot = *ring_[next_pop_seq_ % capacity_];
    if (popped == 0 && first_seq != nullptr) *first_seq = next_pop_seq_;
    out->push_back(std::move(slot.stmt));
    if (meta != nullptr) meta->push_back(slot.meta);
    ring_[next_pop_seq_ % capacity_].reset();
    ++next_pop_seq_;
    --buffered_;
    ++popped;
  }
  if (popped > 0) not_full_.notify_all();
  return popped;
}

bool IngestQueue::CanPop() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Tombstones are skippable, so look past a contiguous run of them.
  uint64_t seq = next_pop_seq_;
  while (abandoned_.count(seq) != 0) ++seq;
  return buffered_ > 0 && SlotReady(seq);
}

void IngestQueue::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  not_full_.notify_all();
}

bool IngestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t IngestQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffered_;
}

size_t IngestQueue::high_water() const {
  std::lock_guard<std::mutex> lock(mu_);
  return high_water_;
}

uint64_t IngestQueue::push_waits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return push_waits_;
}

uint64_t IngestQueue::total_pushed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_pushed_;
}

uint64_t IngestQueue::next_pop_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_pop_seq_;
}

}  // namespace wfit::service

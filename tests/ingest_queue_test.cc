#include "service/ingest_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace wfit::service {
namespace {

/// Statements in these tests only need an identity; the sql field is a
/// convenient payload.
Statement Tagged(const std::string& tag) {
  Statement s;
  s.sql = tag;
  return s;
}

std::vector<std::string> Tags(const std::vector<Statement>& batch) {
  std::vector<std::string> tags;
  for (const Statement& s : batch) tags.push_back(s.sql);
  return tags;
}

TEST(IngestQueueTest, DeliversFifoSingleThread) {
  IngestQueue q(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(q.Push(Tagged(std::to_string(i))));
  }
  EXPECT_EQ(q.depth(), 5u);
  std::vector<Statement> batch;
  uint64_t first_seq = 99;
  EXPECT_EQ(q.TryPopBatch(&batch, 10, &first_seq), 5u);
  EXPECT_EQ(first_seq, 0u);
  EXPECT_EQ(Tags(batch), (std::vector<std::string>{"0", "1", "2", "3", "4"}));
  EXPECT_EQ(q.depth(), 0u);
}

TEST(IngestQueueTest, TryPopBatchRespectsMaxBatch) {
  IngestQueue q(16);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.Push(Tagged("s")));
  std::vector<Statement> batch;
  EXPECT_EQ(q.TryPopBatch(&batch, 4), 4u);
  EXPECT_EQ(q.depth(), 6u);
  batch.clear();
  uint64_t first_seq = 0;
  EXPECT_EQ(q.TryPopBatch(&batch, 100, &first_seq), 6u);
  EXPECT_EQ(first_seq, 4u);
}

TEST(IngestQueueTest, TryPushRefusesWhenFull) {
  IngestQueue q(2);
  EXPECT_TRUE(q.TryPush(Tagged("a")));
  EXPECT_TRUE(q.TryPush(Tagged("b")));
  EXPECT_FALSE(q.TryPush(Tagged("c")));
  std::vector<Statement> batch;
  EXPECT_EQ(q.TryPopBatch(&batch, 1), 1u);
  EXPECT_TRUE(q.TryPush(Tagged("c")));
  EXPECT_EQ(q.depth(), 2u);
}

TEST(IngestQueueTest, PushBlocksOnBackpressureAndResumes) {
  IngestQueue q(1);
  EXPECT_TRUE(q.Push(Tagged("0")));
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(Tagged("1")));  // blocks until the pop below
    EXPECT_TRUE(q.Push(Tagged("2")));
  });
  // Let the producer actually hit the full ring before draining; popping
  // too early lets both pushes through without a wait and the counter
  // assertion below turns flaky.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<Statement> batch;
  size_t got = 0;
  while (got < 3) {
    const size_t n = q.TryPopBatch(&batch, 1);
    if (n == 0) std::this_thread::yield();
    got += n;
  }
  producer.join();
  EXPECT_EQ(Tags(batch), (std::vector<std::string>{"0", "1", "2"}));
  EXPECT_GE(q.push_waits(), 1u);
  EXPECT_EQ(q.high_water(), 1u);
}

TEST(IngestQueueTest, ExplicitSequenceDeliveredInOrder) {
  IngestQueue q(8);
  EXPECT_TRUE(q.PushAt(2, Tagged("2")));
  EXPECT_TRUE(q.PushAt(0, Tagged("0")));
  // Only the contiguous prefix {0} is deliverable; 2 waits for 1.
  std::vector<Statement> batch;
  EXPECT_EQ(q.TryPopBatch(&batch, 10), 1u);
  EXPECT_EQ(batch.back().sql, "0");
  EXPECT_FALSE(q.CanPop());
  EXPECT_TRUE(q.PushAt(1, Tagged("1")));
  EXPECT_TRUE(q.CanPop());
  batch.clear();
  EXPECT_EQ(q.TryPopBatch(&batch, 10), 2u);
  EXPECT_EQ(Tags(batch), (std::vector<std::string>{"1", "2"}));
}

TEST(IngestQueueTest, CloseDrainsThenReportsEndOfStream) {
  IngestQueue q(8);
  EXPECT_TRUE(q.Push(Tagged("a")));
  EXPECT_TRUE(q.Push(Tagged("b")));
  q.Close();
  EXPECT_FALSE(q.Push(Tagged("c")));
  EXPECT_FALSE(q.TryPush(Tagged("c")));
  EXPECT_FALSE(q.PushAt(7, Tagged("c")));
  std::vector<Statement> batch;
  EXPECT_EQ(q.TryPopBatch(&batch, 10), 2u);
  EXPECT_FALSE(q.CanPop());
  EXPECT_EQ(q.TryPopBatch(&batch, 10), 0u);  // drained
}

TEST(IngestQueueTest, RefusedTryPushLeavesNoHoleForALaterPush) {
  // A refused submission takes no ticket, so after the consumer frees the
  // slot a blocking Push returns at once and is the next delivered
  // statement. A ticket left behind by the refusal would park this Push
  // forever; the ctest TIMEOUT on this binary turns that into a failure.
  IngestQueue q(1);
  EXPECT_TRUE(q.Push(Tagged("a")));
  EXPECT_FALSE(q.TryPush(Tagged("refused")));
  std::vector<Statement> batch;
  EXPECT_EQ(q.TryPopBatch(&batch, 10), 1u);
  EXPECT_TRUE(q.Push(Tagged("b")));
  batch.clear();
  uint64_t first_seq = 0;
  EXPECT_EQ(q.TryPopBatch(&batch, 10, &first_seq), 1u);
  EXPECT_EQ(first_seq, 1u);
  EXPECT_EQ(Tags(batch), (std::vector<std::string>{"b"}));
  EXPECT_FALSE(q.CanPop());
}

TEST(IngestQueueTest, AcceptedPushBehindATicketAbandonedAtCloseDrains) {
  IngestQueue q(2);
  EXPECT_TRUE(q.Push(Tagged("a")));
  EXPECT_TRUE(q.Push(Tagged("b")));
  bool blocked_push_accepted = false;
  std::thread producer([&] { blocked_push_accepted = q.Push(Tagged("c")); });
  // Let the producer take ticket 2 and block on the full ring.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::vector<Statement> batch;
  EXPECT_EQ(q.TryPopBatch(&batch, 2), 2u);
  // The pop opened the window for tickets 2 and 3. Unless the woken
  // producer wins the lock first, ticket 3 is accepted here and Close()
  // then leaves ticket 2 as a hole in front of it.
  EXPECT_TRUE(q.TryPush(Tagged("d")));
  q.Close();
  producer.join();
  EXPECT_TRUE(q.CanPop());
  batch.clear();
  const std::vector<std::string> expected =
      blocked_push_accepted ? std::vector<std::string>{"c", "d"}
                            : std::vector<std::string>{"d"};
  EXPECT_EQ(q.TryPopBatch(&batch, 10), expected.size());
  EXPECT_EQ(Tags(batch), expected);
  EXPECT_FALSE(q.CanPop());
}

TEST(IngestQueueTest, MultiProducerImplicitTicketsDeliverEachOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  IngestQueue q(32);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(Tagged(std::to_string(p * kPerProducer + i))));
      }
    });
  }
  std::multiset<std::string> seen;
  std::vector<Statement> batch;
  while (seen.size() < kProducers * kPerProducer) {
    batch.clear();
    if (q.TryPopBatch(&batch, 7) == 0) std::this_thread::yield();
    for (const Statement& s : batch) seen.insert(s.sql);
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(seen.size(), static_cast<size_t>(kProducers * kPerProducer));
  // Exactly-once delivery: no tag repeats.
  EXPECT_EQ(seen.size(), std::set<std::string>(seen.begin(), seen.end()).size());
  EXPECT_LE(q.high_water(), 32u);
  EXPECT_EQ(q.total_pushed(), static_cast<uint64_t>(kProducers * kPerProducer));
}

TEST(IngestQueueTest, MultiProducerExplicitSequenceRestoresTotalOrder) {
  constexpr int kProducers = 4;
  constexpr uint64_t kTotal = 600;
  IngestQueue q(16);  // much smaller than the stream: exercises blocking
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (uint64_t seq = p; seq < kTotal; seq += kProducers) {
        ASSERT_TRUE(q.PushAt(seq, Tagged(std::to_string(seq))));
      }
    });
  }
  std::vector<std::string> delivered;
  std::vector<Statement> batch;
  while (delivered.size() < kTotal) {
    batch.clear();
    if (q.TryPopBatch(&batch, 13) == 0) std::this_thread::yield();
    for (const Statement& s : batch) delivered.push_back(s.sql);
  }
  for (auto& t : producers) t.join();
  for (uint64_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(delivered[i], std::to_string(i));
  }
}

}  // namespace
}  // namespace wfit::service

// Contract tests for the shard ingest queue (serve/queue.hpp): FIFO per
// producer, an exact capacity bound, blocking push, and drain-after-close.
// The multi-producer stress cases double as the TSan workload (this binary
// runs in the TSan CI job).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "llmprism/serve/queue.hpp"

namespace llmprism::serve {
namespace {

using Queue = MutexQueue<std::uint64_t>;

TEST(QueueTest, FifoSingleProducer) {
  Queue q(16);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const PushOutcome outcome = q.push(i);
    EXPECT_TRUE(outcome.accepted);
    EXPECT_FALSE(outcome.blocked) << "capacity 16 must not block at depth "
                                  << i;
  }
  EXPECT_EQ(q.depth(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const std::optional<std::uint64_t> item = q.pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_EQ(q.depth(), 0u);
}

TEST(QueueTest, PushAfterCloseIsRejected) {
  Queue q(4);
  EXPECT_TRUE(q.push(1).accepted);
  q.close();
  EXPECT_FALSE(q.push(2).accepted);
}

TEST(QueueTest, PopDrainsRemainingItemsAfterClose) {
  Queue q(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.push(i).accepted);
  }
  q.close();
  for (std::uint64_t i = 0; i < 5; ++i) {
    const std::optional<std::uint64_t> item = q.pop();
    ASSERT_TRUE(item.has_value()) << "item " << i << " lost at close";
    EXPECT_EQ(*item, i);
  }
  EXPECT_FALSE(q.pop().has_value()) << "drained+closed pop must signal exit";
  EXPECT_FALSE(q.pop().has_value()) << "...and stay signalled";
}

TEST(QueueTest, PopBlocksUntilPushArrives) {
  Queue q(4);
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    const std::optional<std::uint64_t> item = q.pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, 42u);
    got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load()) << "pop returned before any push";
  ASSERT_TRUE(q.push(42).accepted);
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(QueueTest, FullQueueBlocksProducerUntilPop) {
  // Capacity 5 is not a power of two: the bound is exactly the configured
  // ServeConfig::queue_capacity, never rounded up.
  Queue q(5);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.push(i).accepted);
  }
  std::atomic<bool> accepted{false};
  std::atomic<bool> blocked{false};
  std::thread producer([&] {
    const PushOutcome outcome = q.push(99);
    blocked.store(outcome.blocked);
    accepted.store(outcome.accepted);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(accepted.load()) << "push must block while full";
  EXPECT_EQ(q.depth(), 5u);
  ASSERT_TRUE(q.pop().has_value());
  producer.join();
  EXPECT_TRUE(accepted.load());
  EXPECT_TRUE(blocked.load()) << "a blocking push must report itself";
  // FIFO across the block: the remaining original items precede 99.
  for (std::uint64_t i = 1; i < 5; ++i) {
    EXPECT_EQ(q.pop(), std::optional<std::uint64_t>(i));
  }
  EXPECT_EQ(q.pop(), std::optional<std::uint64_t>(99));
}

TEST(QueueTest, CloseUnblocksAFullProducer) {
  Queue q(2);
  ASSERT_TRUE(q.push(0).accepted);
  ASSERT_TRUE(q.push(1).accepted);
  std::atomic<bool> done{false};
  std::atomic<bool> accepted{true};
  std::thread producer([&] {
    accepted.store(q.push(2).accepted);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load());
  q.close();
  producer.join();
  EXPECT_FALSE(accepted.load()) << "a push released by close drops its item";
}

// The daemon's actual shape: several reader threads feeding one shard
// worker through a small queue, with producers outrunning the consumer
// so the backpressure path is exercised. Every pushed item must arrive
// exactly once, and each producer's own items must arrive in its send
// order (per-producer FIFO is what keeps one connection's chunks
// analyzed in order).
TEST(QueueTest, MpscStressDeliversEverythingInPerProducerOrder) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 2000;
  Queue q(8);  // small: forces blocking pushes

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        // Tag: producer in the high bits, sequence in the low.
        ASSERT_TRUE(q.push((static_cast<std::uint64_t>(p) << 32) | i)
                        .accepted);
      }
    });
  }

  std::vector<std::vector<std::uint64_t>> seen(kProducers);
  std::thread consumer([&] {
    for (std::uint64_t n = 0; n < kProducers * kPerProducer; ++n) {
      const std::optional<std::uint64_t> item = q.pop();
      ASSERT_TRUE(item.has_value());
      seen[*item >> 32].push_back(*item & 0xffffffffu);
    }
  });
  for (std::thread& t : producers) t.join();
  consumer.join();

  for (std::size_t p = 0; p < kProducers; ++p) {
    ASSERT_EQ(seen[p].size(), kPerProducer) << "producer " << p;
    for (std::uint64_t i = 0; i < kPerProducer; ++i) {
      ASSERT_EQ(seen[p][i], i) << "producer " << p << " reordered";
    }
  }
  EXPECT_EQ(q.depth(), 0u);
  q.close();
  EXPECT_FALSE(q.pop().has_value());
}

// Producers racing close(): whatever was accepted before the close must
// still be drained — no accepted item may vanish.
TEST(QueueTest, NoAcceptedItemLostAcrossClose) {
  constexpr std::size_t kProducers = 4;
  Queue q(8);
  std::atomic<std::uint64_t> pushed{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < 10000; ++i) {
        if (!q.push((static_cast<std::uint64_t>(p) << 32) | i).accepted) {
          return;  // closed underneath us
        }
        pushed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::atomic<std::uint64_t> popped{0};
  std::thread consumer([&] {
    while (q.pop().has_value()) {
      popped.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  q.close();
  for (std::thread& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(popped.load(), pushed.load())
      << "accepted-but-undrained items were lost at shutdown";
}

TEST(QueueTest, MoveOnlyPayload) {
  MutexQueue<std::unique_ptr<std::uint64_t>> q(4);
  ASSERT_TRUE(q.push(std::make_unique<std::uint64_t>(7)).accepted);
  const auto item = q.pop();
  ASSERT_TRUE(item.has_value());
  ASSERT_NE(*item, nullptr);
  EXPECT_EQ(**item, 7u);
}

}  // namespace
}  // namespace llmprism::serve

#include "common/channel.h"

#include <gtest/gtest.h>

#include "test_env.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace dear {
namespace {

TEST(ChannelTest, SendThenRecv) {
  Channel<int> ch;
  EXPECT_TRUE(ch.Send(7));
  auto v = ch.Recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
}

TEST(ChannelTest, FifoOrder) {
  Channel<int> ch;
  for (int i = 0; i < 10; ++i) ch.Send(i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(*ch.Recv(), i);
}

TEST(ChannelTest, TryRecvEmptyReturnsNullopt) {
  Channel<int> ch;
  EXPECT_FALSE(ch.TryRecv().has_value());
  ch.Send(1);
  EXPECT_TRUE(ch.TryRecv().has_value());
  EXPECT_FALSE(ch.TryRecv().has_value());
}

TEST(ChannelTest, SendAfterCloseFails) {
  Channel<int> ch;
  ch.Close();
  EXPECT_FALSE(ch.Send(1));
  EXPECT_TRUE(ch.closed());
}

TEST(ChannelTest, RecvDrainsAfterClose) {
  Channel<int> ch;
  ch.Send(1);
  ch.Send(2);
  ch.Close();
  EXPECT_EQ(*ch.Recv(), 1);
  EXPECT_EQ(*ch.Recv(), 2);
  EXPECT_FALSE(ch.Recv().has_value());
}

TEST(ChannelTest, CloseWakesBlockedReceiver) {
  Channel<int> ch;
  std::atomic<bool> woke{false};
  std::thread receiver([&] {
    const auto v = ch.Recv();
    EXPECT_FALSE(v.has_value());
    woke.store(true, std::memory_order_relaxed);
  });
  // Give the receiver a moment to block, then close.
  testenv::SleepMs(10);
  ch.Close();
  receiver.join();
  EXPECT_TRUE(woke.load(std::memory_order_relaxed));
}

TEST(ChannelTest, BlockingRecvGetsLaterSend) {
  Channel<int> ch;
  std::thread sender([&] {
    testenv::SleepMs(5);
    ch.Send(99);
  });
  EXPECT_EQ(*ch.Recv(), 99);
  sender.join();
}

TEST(ChannelTest, ManyProducersOneConsumerDeliversEverything) {
  Channel<int> ch;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch, p] {
      for (int i = 0; i < kPerProducer; ++i) ch.Send(p * kPerProducer + i);
    });
  }
  std::vector<bool> seen(kProducers * kPerProducer, false);
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    const auto v = ch.Recv();
    ASSERT_TRUE(v.has_value());
    ASSERT_GE(*v, 0);
    ASSERT_LT(*v, kProducers * kPerProducer);
    EXPECT_FALSE(seen[static_cast<std::size_t>(*v)]);
    seen[static_cast<std::size_t>(*v)] = true;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(ch.size(), 0u);
}

// Close() racing a crowd of blocked receivers: every one must wake with
// nullopt — the transport relies on this to release all ranks on Shutdown.
TEST(ChannelTest, CloseWakesEveryBlockedReceiver) {
  Channel<int> ch;
  constexpr int kReceivers = 8;
  std::atomic<int> woken{0};
  std::vector<std::thread> receivers;
  receivers.reserve(kReceivers);
  for (int i = 0; i < kReceivers; ++i) {
    receivers.emplace_back([&] {
      if (!ch.Recv().has_value()) woken.fetch_add(1, std::memory_order_relaxed);
    });
  }
  testenv::SleepMs(10);
  ch.Close();
  for (auto& t : receivers) t.join();
  EXPECT_EQ(woken.load(std::memory_order_relaxed), kReceivers);
  EXPECT_FALSE(ch.Send(1));
}

// Concurrent Send / Close / draining Recv: no interleaving may hang, and
// the receiver sees a prefix of the sent values followed by nullopt.
TEST(ChannelTest, SendCloseRecvRaceNeverHangs) {
  for (int iter = 0; iter < 50; ++iter) {
    Channel<int> ch;
    std::thread sender([&] {
      for (int i = 0; i < 4; ++i) {
        if (!ch.Send(i)) break;  // close won the race
      }
    });
    std::thread closer([&] { ch.Close(); });
    int expected = 0;
    while (const auto v = ch.Recv()) {
      EXPECT_EQ(*v, expected);  // FIFO prefix, no gaps
      ++expected;
    }
    EXPECT_LE(expected, 4);
    sender.join();
    closer.join();
  }
}

TEST(ChannelTest, MoveOnlyPayload) {
  Channel<std::unique_ptr<int>> ch;
  ch.Send(std::make_unique<int>(5));
  auto v = ch.Recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

TEST(ChannelTest, ClearDropsQueuedItemsAndReportsCount) {
  Channel<int> ch;
  for (int i = 0; i < 5; ++i) ch.Send(i);
  EXPECT_EQ(ch.Clear(), 5u);
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_EQ(ch.Clear(), 0u);
  // The channel is still usable after a Clear (Shutdown Closes first; a
  // bare Clear only empties the queue).
  ch.Send(42);
  EXPECT_EQ(*ch.Recv(), 42);
}

// Clear must run queued items' destructors — the transport relies on this
// to return stranded pooled slabs on Shutdown.
TEST(ChannelTest, ClearDestroysQueuedItems) {
  auto counter = std::make_shared<int>(0);
  struct Probe {
    std::shared_ptr<int> count;
    Probe() = default;
    explicit Probe(std::shared_ptr<int> c) : count(std::move(c)) {}
    Probe(Probe&&) = default;
    Probe& operator=(Probe&& other) {
      if (count) ++*count;
      count = std::move(other.count);
      return *this;
    }
    ~Probe() {
      if (count) ++*count;
    }
  };
  Channel<Probe> ch;
  ch.Send(Probe(counter));
  ch.Send(Probe(counter));
  ASSERT_EQ(counter.use_count(), 3);
  ch.Clear();
  EXPECT_EQ(counter.use_count(), 1);  // both queued probes released
}

// FIFO order must survive ring-buffer growth, including growth from a
// wrapped state (head mid-buffer when the capacity doubles).
TEST(ChannelTest, FifoSurvivesGrowthWhileWrapped) {
  Channel<int> ch;
  int next_send = 0, next_recv = 0;
  // Offset the head so the ring is wrapped when it fills.
  for (int i = 0; i < 11; ++i) ch.Send(next_send++);
  for (int i = 0; i < 11; ++i) EXPECT_EQ(*ch.Recv(), next_recv++);
  for (int i = 0; i < 100; ++i) ch.Send(next_send++);  // forces regrowth
  for (int i = 0; i < 100; ++i) EXPECT_EQ(*ch.Recv(), next_recv++);
  EXPECT_EQ(ch.size(), 0u);
}

// A membership-epoch trip cycles the channel (close, clear, reopen). A
// timed receive that began before the cycle must end without taking what
// the next epoch's senders queued after it; a receive that begins after
// the cycle takes it.
TEST(ChannelTest, RecvForLeavesItemsQueuedAfterACycle) {
  Channel<int> ch;
  const std::uint64_t before = ch.close_generation();
  ch.Close();
  ch.Clear();
  ch.Reopen();
  ASSERT_TRUE(ch.Send(7));
  RecvOutcome outcome = RecvOutcome::kItem;
  EXPECT_FALSE(
      ch.RecvFor(std::chrono::milliseconds(1), &outcome, before).has_value());
  EXPECT_EQ(outcome, RecvOutcome::kClosed);
  const auto item = ch.RecvFor(std::chrono::milliseconds(1), &outcome,
                               ch.close_generation());
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(*item, 7);
  EXPECT_EQ(outcome, RecvOutcome::kItem);
  EXPECT_FALSE(ch.RecvFor(std::chrono::milliseconds(1), &outcome,
                          ch.close_generation())
                   .has_value());
  EXPECT_EQ(outcome, RecvOutcome::kTimeout);
}

}  // namespace
}  // namespace dear

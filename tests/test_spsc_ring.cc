#include "util/spsc_ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace rloop::util {
namespace {

TEST(SpscRing, RejectsNonPowerOfTwoCapacity) {
  EXPECT_THROW(SpscRing<int>(0), std::invalid_argument);
  EXPECT_THROW(SpscRing<int>(3), std::invalid_argument);
  EXPECT_THROW(SpscRing<int>(100), std::invalid_argument);
  EXPECT_NO_THROW(SpscRing<int>(1));
  EXPECT_NO_THROW(SpscRing<int>(2));
  EXPECT_NO_THROW(SpscRing<int>(1 << 16));
}

TEST(SpscRing, FifoOrderAcrossWraparound) {
  SpscRing<int> ring(8);
  int out[8];
  int next_expected = 0;
  // Push/pop interleaved far past the capacity so indices wrap many times.
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(ring.try_push(round * 5 + i));
    }
    const std::size_t n = ring.pop_batch(out, 8);
    ASSERT_EQ(n, 5u);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], next_expected++);
    }
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FullRingRefusesPushUntilPopped) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));
  EXPECT_EQ(ring.size_approx(), 4u);
  int v = -1;
  ASSERT_TRUE(ring.try_pop(v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ring.try_push(4));  // slot freed
  EXPECT_FALSE(ring.try_push(5));
}

TEST(SpscRing, PopBatchRespectsMax) {
  SpscRing<int> ring(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ring.try_push(i));
  int out[16];
  EXPECT_EQ(ring.pop_batch(out, 4), 4u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[3], 3);
  EXPECT_EQ(ring.pop_batch(out, 16), 6u);
  EXPECT_EQ(out[0], 4);
  EXPECT_EQ(out[5], 9);
  EXPECT_EQ(ring.pop_batch(out, 16), 0u);
}

TEST(SpscRing, ThreadedLosslessTransfersEverythingInOrder) {
  constexpr std::uint64_t kCount = 1'000'000;
  SpscRing<std::uint64_t> ring(1024);
  std::vector<std::uint64_t> received;
  received.reserve(kCount);

  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  std::uint64_t out[256];
  while (received.size() < kCount) {
    const std::size_t n = ring.pop_batch(out, 256);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    received.insert(received.end(), out, out + n);
  }
  producer.join();

  ASSERT_EQ(received.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(received[i], i) << "order violated at " << i;
  }
  EXPECT_TRUE(ring.empty());
}

// Drop-newest under a producer that runs flat out against a deliberately
// slowed consumer: every record is either received or counted dropped
// (pushed == consumed + dropped, exactly), and the received subsequence
// preserves production order.
TEST(SpscRing, ThreadedDropNewestAccountsForEveryRecord) {
  constexpr std::uint64_t kCount = 200'000;
  SpscRing<std::uint64_t> ring(64);
  std::uint64_t dropped = 0;

  std::thread producer([&ring, &dropped] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      if (!ring.try_push(i)) ++dropped;
    }
  });

  std::vector<std::uint64_t> received;
  std::uint64_t out[16];
  bool producer_alive = true;
  while (true) {
    const std::size_t n = ring.pop_batch(out, 16);
    if (n == 0) {
      if (!producer_alive) break;
      if (producer.joinable() && ring.empty()) {
        // Producer may have finished; join once and drain whatever is left.
        producer.join();
        producer_alive = false;
      }
      continue;
    }
    received.insert(received.end(), out, out + n);
    // ~1 us of pretend detection work per batch keeps the consumer behind.
    for (volatile int spin = 0; spin < 300;) {
      spin = spin + 1;
    }
  }

  EXPECT_EQ(received.size() + dropped, kCount);
  EXPECT_GT(dropped, 0u) << "consumer kept up; overload never happened";
  for (std::size_t i = 1; i < received.size(); ++i) {
    ASSERT_LT(received[i - 1], received[i]) << "order violated at " << i;
  }
}

}  // namespace
}  // namespace rloop::util

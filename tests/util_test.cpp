// Unit tests for the util substrate: ids, rng, stats, thread pool, sync.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <set>
#include <thread>
#include <vector>

#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace samoa {
namespace {

TEST(Ids, DistinctAndOrdered) {
  IdAllocator<MicroprotocolTag> alloc;
  auto a = alloc.next();
  auto b = alloc.next();
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(MicroprotocolId{}.valid());
}

TEST(Ids, HashUsableInSets) {
  IdAllocator<HandlerTag> alloc;
  std::set<HandlerId> s;
  for (int i = 0; i < 100; ++i) s.insert(alloc.next());
  EXPECT_EQ(s.size(), 100u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
  EXPECT_EQ(r.next_below(0), 0u);
  EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, UniformCoversRange) {
  Rng r(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    auto v = r.uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoublesInUnitInterval) {
  Rng r(13);
  for (int i = 0; i < 10000; ++i) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng r(19);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng r(23);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
  EXPECT_EQ(r.exponential(0.0), 0.0);
  EXPECT_EQ(r.exponential(-1.0), 0.0);
}

TEST(Rng, SplitIndependentStreams) {
  Rng a(31);
  Rng b = a.split();
  // The split stream must not mirror the parent.
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Counter, ConcurrentAdds) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 40000u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, MeanAndQuantiles) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record_ns(1000);  // all equal
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 1000.0);
  // Bucketed quantile: upper bound of the bucket containing 1000ns.
  EXPECT_GE(h.quantile_ns(0.5), 1000.0);
  EXPECT_LE(h.quantile_ns(0.5), 1300.0);
}

TEST(Histogram, QuantileOrdering) {
  Histogram h;
  Rng r(5);
  for (int i = 0; i < 10000; ++i) h.record_ns(r.next_below(1'000'000));
  EXPECT_LE(h.quantile_ns(0.5), h.quantile_ns(0.99));
  EXPECT_LE(h.quantile_ns(0.1), h.quantile_ns(0.5));
}

TEST(Histogram, MeanConsistentUnderConcurrentRecording) {
  // Regression: mean_ns() used to read total_count_ and total_ns_ as two
  // independent atomic loads, so a record() landing between them produced
  // a mean computed from mismatched totals. With every thread recording
  // the same constant, any consistent (count, ns) snapshot yields exactly
  // that constant — a skewed pair shows up as a different value.
  Histogram h;
  constexpr std::uint64_t kValue = 100;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) h.record_ns(kValue);
    });
  }
  // On a single-core host the verification loop can finish before any
  // writer thread is scheduled at all; wait for the first record so the
  // loop really runs against concurrent writers (and the final count
  // check cannot race to zero).
  while (h.count() == 0) std::this_thread::yield();
  for (int i = 0; i < 20000; ++i) {
    ASSERT_DOUBLE_EQ(h.mean_ns(), static_cast<double>(kValue));
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_DOUBLE_EQ(h.mean_ns(), static_cast<double>(kValue));
  EXPECT_GT(h.count(), 0u);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record_ns(5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean_ns(), 0.0);
}

TEST(FormatDuration, PicksUnits) {
  EXPECT_EQ(format_duration_ns(500), "500.0ns");
  EXPECT_EQ(format_duration_ns(1500), "1.50us");
  EXPECT_EQ(format_duration_ns(2.5e6), "2.50ms");
  EXPECT_EQ(format_duration_ns(3.2e9), "3.20s");
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ElasticThreadPool pool;
  std::atomic<int> ran{0};
  std::latch done(100);
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] {
      ran.fetch_add(1);
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, GrowsWhenTasksBlock) {
  // All currently-running tasks block on an event; a newly submitted task
  // must still run (elastic growth), otherwise this test deadlocks.
  ElasticThreadPool pool(ElasticThreadPool::Options{1, 64, std::chrono::milliseconds(50)});
  OneShotEvent release;
  std::latch done(8);
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      release.wait();
      done.count_down();
    });
  }
  OneShotEvent unblocked;
  pool.submit([&] { unblocked.set(); });
  EXPECT_TRUE(unblocked.wait_for(std::chrono::milliseconds(5000)));
  release.set();
  done.wait();
  EXPECT_GE(pool.peak_thread_count(), 2u);
}

TEST(ThreadPool, ShutdownDrainsBacklog) {
  std::atomic<int> ran{0};
  {
    ElasticThreadPool pool(ElasticThreadPool::Options{1, 4, std::chrono::milliseconds(50)});
    for (int i = 0; i < 50; ++i) {
      pool.submit([&] { ran.fetch_add(1); });
    }
    pool.shutdown();
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ElasticThreadPool pool;
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPool, IdleWorkersRetire) {
  ElasticThreadPool pool(ElasticThreadPool::Options{1, 64, std::chrono::milliseconds(20)});
  OneShotEvent release;
  std::latch done(16);
  for (int i = 0; i < 16; ++i) {
    pool.submit([&] {
      release.wait();
      done.count_down();
    });
  }
  release.set();
  done.wait();
  // Give idle workers several timeout periods to retire.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LE(pool.thread_count(), 16u);
  EXPECT_GE(pool.peak_thread_count(), 2u);
}

TEST(OneShotEvent, SetReleasesWaiters) {
  OneShotEvent e;
  EXPECT_FALSE(e.is_set());
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    e.set();
  });
  e.wait();
  EXPECT_TRUE(e.is_set());
  t.join();
}

TEST(SpinFor, WaitsApproximately) {
  const auto start = Clock::now();
  spin_for(std::chrono::microseconds(500));
  const auto elapsed = Clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::microseconds(500));
}

}  // namespace
}  // namespace samoa

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "testing/sampling.h"

namespace fedcl {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    FEDCL_CHECK(1 == 2) << "custom detail " << 42;
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
  }
}

// The message a failed check throws.
template <typename Check>
std::string check_message(Check check) {
  try {
    check();
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected throw";
  return "";
}

TEST(Check, ComparisonMacros) {
  EXPECT_THROW(FEDCL_CHECK_EQ(1, 2), Error);
  EXPECT_THROW(FEDCL_CHECK_LT(2, 1), Error);
  EXPECT_NO_THROW(FEDCL_CHECK_LE(1, 1));
  EXPECT_NO_THROW(FEDCL_CHECK_GE(2, 1));
  // The operands stand apart from the caller's message...
  const std::string with = check_message(
      [] { FEDCL_CHECK_LE(1.25, 1.0) << "B*Kt exceeds the dataset"; });
  EXPECT_NE(with.find("((1.25) <= (1.0))"), std::string::npos) << with;
  EXPECT_NE(with.find(" — 1.25 vs 1: B*Kt exceeds the dataset"),
            std::string::npos)
      << with;
  // ...and without one the text ends at the operands.
  const std::string bare = check_message([] { FEDCL_CHECK_EQ(3, 4); });
  const std::string tail = " — 3 vs 4";
  ASSERT_GE(bare.size(), tail.size()) << bare;
  EXPECT_EQ(bare.substr(bare.size() - tail.size()), tail) << bare;
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkIndependence) {
  Rng root(7);
  Rng c0 = root.fork("client", 0);
  Rng c1 = root.fork("client", 1);
  Rng d0 = root.fork("data", 0);
  EXPECT_NE(c0.next_u64(), c1.next_u64());
  EXPECT_NE(root.fork("client", 0).next_u64(), d0.next_u64());
  // Fork does not consume parent state.
  Rng root2(7);
  EXPECT_EQ(root.next_u64(), root2.next_u64());
}

TEST(Rng, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    auto v = rng.uniform_int(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
  EXPECT_THROW(rng.uniform_int(0), Error);
}

TEST(Rng, NormalMoments) {
  Rng rng(3);
  const int n = 20000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  double m = sum / n;
  double var = sq / n - m * m;
  EXPECT_NEAR(m, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, NormalScaled) {
  Rng rng(4);
  const int n = 20000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  double m = sum / n;
  double var = sq / n - m * m;
  EXPECT_NEAR(m, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.03);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(6);
  auto s = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
  auto s2 = rng.sample_without_replacement(100, 5);
  EXPECT_EQ(s2.size(), 5u);
  std::set<std::size_t> uniq2(s2.begin(), s2.end());
  EXPECT_EQ(uniq2.size(), 5u);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), Error);
}

TEST(Rng, SampleWithoutReplacementMatchesDenseFisherYates) {
  // The cohort, in draw order, and the next draw after it equal the
  // dense shuffle's, on both sides of the sampler's dense/table split.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{10}, std::size_t{1000},
                              std::size_t{1000000}}) {
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, n / 16,
                                n / 2, n}) {
      for (const std::uint64_t seed : {3u, 17u, 2024u}) {
        Rng fast(seed), dense(seed);
        EXPECT_EQ(fast.sample_without_replacement(n, k),
                  testing::reference_sample_without_replacement(dense, n, k))
            << "n=" << n << " k=" << k << " seed=" << seed;
        EXPECT_EQ(fast.next_u64(), dense.next_u64())
            << "n=" << n << " k=" << k << " seed=" << seed;
      }
    }
  }
}

TEST(Rng, SampleWithoutReplacementIsLinearInTheCohort) {
  // 16 picks from 2^40 ids: an identity array would need 8 TiB.
  Rng rng(11);
  const std::size_t n = std::size_t{1} << 40;
  const std::vector<std::size_t> s = rng.sample_without_replacement(n, 16);
  ASSERT_EQ(s.size(), 16u);
  for (const std::size_t id : s) EXPECT_LT(id, n);
  EXPECT_EQ(std::set<std::size_t>(s.begin(), s.end()).size(), 16u);
}

TEST(Rng, Shuffle) {
  Rng rng(8);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);  // permutation
}

TEST(Stats, Rmse) {
  std::vector<float> a{0.f, 0.f, 0.f};
  std::vector<float> b{3.f, 4.f, 0.f};
  EXPECT_NEAR(rmse(a, b), std::sqrt(25.0 / 3.0), 1e-6);
  EXPECT_DOUBLE_EQ(rmse(a, a), 0.0);
}

TEST(Table, RendersAligned) {
  AsciiTable t("title");
  t.set_header({"a", "bbbb"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  std::string s = t.render();
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("| longer |"), std::string::npos);
  EXPECT_NE(s.find("| bbbb"), std::string::npos);
}

TEST(Table, Fmt) {
  EXPECT_EQ(AsciiTable::fmt(0.5, 2), "0.50");
  EXPECT_EQ(AsciiTable::fmt(1.23456, 3), "1.235");
}

// Counts the calling thread in and waits, at most 10 s, until `count`
// threads have arrived. Returns whether they all did.
bool arrive_and_wait(std::atomic<int>& arrived, int count) {
  arrived.fetch_add(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (arrived.load() < count) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [&](std::size_t i) {
                          if (i == 2) throw Error("boom");
                        }),
      Error);
}

TEST(ThreadPool, SubmitFuture) {
  ThreadPool pool(1);
  int x = 0;
  pool.submit([&] { x = 7; }).get();
  EXPECT_EQ(x, 7);
}

TEST(ThreadPool, ExceptionWaitsForAllTasks) {
  // Regression: the old implementation rethrew the first task's
  // exception while later tasks could still be running, letting the
  // callable (and any captured state) be destroyed under them. The
  // rethrow must happen only after every task has finished.
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          if (i == 0) throw Error("early");
                          completed++;
                        }),
      Error);
  // All 63 non-throwing tasks ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 63);
}

TEST(ThreadPool, ManyExceptionsPropagateExactlyOne) {
  ThreadPool pool(4);
  std::atomic<int> thrown{0};
  try {
    pool.parallel_for(32, [&](std::size_t) {
      thrown++;
      throw Error("each");
    });
    FAIL() << "expected an exception";
  } catch (const Error&) {
  }
  EXPECT_EQ(thrown.load(), 32);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // parallel_for called from inside the pool, on a worker or on the
  // caller running an index of its own job, must run inline instead of
  // publishing (which could deadlock a saturated pool).
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::atomic<int> inner_total{0};
  std::atomic<int> caller_indices{0};
  pool.parallel_for(4, [&](std::size_t i) {
    // Indices 0 and 1 wait for each other, so two threads run them:
    // the worker and the caller.
    if (i < 2) {
      EXPECT_TRUE(arrive_and_wait(started, 2));
    }
    const std::thread::id self = std::this_thread::get_id();
    EXPECT_TRUE(pool.on_worker_thread());
    if (self == caller) caller_indices++;
    pool.parallel_for(8, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), self);
      inner_total++;
    });
  });
  EXPECT_EQ(inner_total.load(), 32);
  EXPECT_GE(caller_indices.load(), 1);
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(ThreadPool, CallerRunsAnIndex) {
  // Two indices that wait for each other both start only when two
  // threads run them; a pool of two has one worker, so the other
  // thread is the caller.
  ThreadPool pool(2);
  std::atomic<int> started{0};
  std::vector<std::thread::id> ids(2);
  std::vector<char> met(2, 0);
  pool.parallel_for(2, [&](std::size_t i) {
    ids[i] = std::this_thread::get_id();
    met[i] = arrive_and_wait(started, 2);
  });
  EXPECT_TRUE(met[0] && met[1]);
  EXPECT_NE(ids[0], ids[1]);
  const std::thread::id caller = std::this_thread::get_id();
  EXPECT_TRUE(ids[0] == caller || ids[1] == caller);
}

TEST(ThreadPool, NeverRunsMoreThanSizeAtOnce) {
  // ClientRunner keeps size() scratch models, one per index running.
  for (std::size_t threads : {2, 3, 4}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    std::atomic<std::size_t> active{0};
    std::atomic<std::size_t> peak{0};
    pool.parallel_for(64, [&](std::size_t) {
      const std::size_t now = active.fetch_add(1) + 1;
      std::size_t seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      active.fetch_sub(1);
    });
    EXPECT_GE(peak.load(), 1u);
    EXPECT_LE(peak.load(), pool.size()) << threads << " threads";
  }
}

TEST(ThreadPool, CallerExceptionWaitsForOtherIndices) {
  // The caller's own index throws while the worker's still runs: the
  // exception may leave parallel_for only after that index is done.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::atomic<bool> other_done{false};
  EXPECT_THROW(pool.parallel_for(2,
                                 [&](std::size_t) {
                                   EXPECT_TRUE(arrive_and_wait(started, 2));
                                   if (std::this_thread::get_id() == caller) {
                                     throw Error("caller");
                                   }
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(50));
                                   other_done = true;
                                 }),
               Error);
  EXPECT_TRUE(other_done.load());
}

TEST(ThreadPool, ConcurrentCallersShareOnePool) {
  // Three external callers publish short jobs on one pool at once. Each
  // index writes its own slot without synchronization; the caller reads
  // them after parallel_for returns, so a record that dies before its
  // workers leave, or a missed index, shows as a wrong sum (and, under
  // TSan or ASan, as a report).
  ThreadPool pool(4);
  constexpr int kCallers = 3;
  constexpr int kCalls = 2000;
  std::vector<int> wrong(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int k = 0; k < kCalls; ++k) {
        const std::size_t n = 2 + static_cast<std::size_t>((k + c) % 4);
        std::vector<std::size_t> slots(n, 0);
        pool.parallel_for(n, [&](std::size_t i) { slots[i] = i + 1; });
        std::size_t sum = 0;
        for (std::size_t v : slots) sum += v;
        if (sum != n * (n + 1) / 2) ++wrong[static_cast<std::size_t>(c)];
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(wrong, std::vector<int>(kCallers, 0));
}

TEST(ThreadPool, SubmitRunsOnAWorker) {
  // A pool of one computes loops inline but still keeps a worker.
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  bool inside = false;
  std::thread::id id;
  pool.submit([&] {
        inside = pool.on_worker_thread();
        id = std::this_thread::get_id();
      })
      .get();
  EXPECT_TRUE(inside);
  EXPECT_NE(id, std::this_thread::get_id());
}

TEST(ThreadPool, ParallelForChunksCoversRangeOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for_chunks(100, 7, [&](std::size_t begin, std::size_t end) {
    ASSERT_LT(begin, end);
    for (std::size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksRespectsGrain) {
  ThreadPool pool(8);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for_chunks(20, 16, [&](std::size_t begin, std::size_t end) {
    std::lock_guard<std::mutex> lock(m);
    chunks.emplace_back(begin, end);
  });
  // grain 16 over 20 items allows at most ceil(20/16) = 2 chunks.
  EXPECT_LE(chunks.size(), 2u);
  std::size_t covered = 0;
  for (const auto& [b, e] : chunks) covered += e - b;
  EXPECT_EQ(covered, 20u);
}

TEST(ComputePool, SingletonIsShared) {
  ThreadPool& a = compute_pool();
  ThreadPool& b = compute_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
}

}  // namespace
}  // namespace fedcl

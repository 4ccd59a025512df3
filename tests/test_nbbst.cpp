// NB-BST baseline: sequential model conformance + concurrent stress.
#include "nbbst/nb_bst.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common.h"

namespace pnbbst {
namespace {

using Tree = NbBst<long>;

TEST(NbBst, EmptyTree) {
  Tree t;
  EXPECT_FALSE(t.contains(0));
  EXPECT_FALSE(t.erase(0));
  EXPECT_EQ(t.size_unsafe(), 0u);
}

TEST(NbBst, BasicInsertEraseFind) {
  Tree t;
  EXPECT_TRUE(t.insert(5));
  EXPECT_FALSE(t.insert(5));
  EXPECT_TRUE(t.contains(5));
  EXPECT_TRUE(t.erase(5));
  EXPECT_FALSE(t.erase(5));
  EXPECT_FALSE(t.contains(5));
}

TEST(NbBst, ExtremeKeys) {
  Tree t;
  EXPECT_TRUE(t.insert(std::numeric_limits<long>::min()));
  EXPECT_TRUE(t.insert(std::numeric_limits<long>::max()));
  EXPECT_TRUE(t.contains(std::numeric_limits<long>::min()));
  EXPECT_TRUE(t.erase(std::numeric_limits<long>::max()));
}

class NbModelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NbModelFuzz, MatchesStdSet) {
  Tree t;
  const auto model = test::run_model_ops(t, GetParam(), 5000, 200);
  EXPECT_EQ(t.size_unsafe(), model.size());
  for (long k : model) EXPECT_TRUE(t.contains(k));
  // Quiescent scan (safe when no updates run) must match exactly.
  std::vector<long> expect(model.begin(), model.end());
  EXPECT_EQ(t.range_scan_unsafe(0, 200), expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NbModelFuzz,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(NbBst, PartitionedConcurrentStress) {
  EpochReclaimer dom;
  {
    NbBst<long, std::less<long>, EpochReclaimer> t(dom);
    constexpr unsigned kThreads = 4;
    constexpr long kRange = 128;
    std::atomic<bool> failed{false};
    std::vector<std::thread> pool;
    for (unsigned ti = 0; ti < kThreads; ++ti) {
      pool.emplace_back([&, ti] {
        std::set<long> model;
        Xoshiro256 rng(thread_seed(500, ti));
        const long base = static_cast<long>(ti) * kRange;
        for (int i = 0; i < 15000 && !failed; ++i) {
          const long k = base + static_cast<long>(rng.next_bounded(kRange));
          switch (rng.next_bounded(3)) {
            case 0:
              if (t.insert(k) != model.insert(k).second) failed = true;
              break;
            case 1:
              if (t.erase(k) != (model.erase(k) > 0)) failed = true;
              break;
            default:
              if (t.contains(k) != (model.count(k) > 0)) failed = true;
              break;
          }
        }
      });
    }
    for (auto& th : pool) th.join();
    EXPECT_FALSE(failed.load());
  }
  dom.quiescent_flush();
  EXPECT_EQ(dom.pending_count(), 0u);
}

TEST(NbBst, SingleKeyContention) {
  Tree t;
  std::atomic<long> net{0};
  std::vector<std::thread> pool;
  for (unsigned ti = 0; ti < 8; ++ti) {
    pool.emplace_back([&, ti] {
      Xoshiro256 rng(thread_seed(501, ti));
      long local = 0;
      for (int i = 0; i < 5000; ++i) {
        if (rng.next_bounded(2)) {
          if (t.insert(9)) ++local;
        } else {
          if (t.erase(9)) --local;
        }
      }
      net.fetch_add(local);
    });
  }
  for (auto& th : pool) th.join();
  const long n = net.load();
  ASSERT_TRUE(n == 0 || n == 1);
  EXPECT_EQ(t.contains(9), n == 1);
}

TEST(NbBst, ExactlyOneWinnerPerKey) {
  Tree t;
  std::atomic<long> wins{0};
  std::vector<std::thread> pool;
  for (unsigned ti = 0; ti < 8; ++ti) {
    pool.emplace_back([&] {
      long local = 0;
      for (long k = 0; k < 300; ++k) {
        if (t.insert(k)) ++local;
      }
      wins.fetch_add(local);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(wins.load(), 300);
  EXPECT_EQ(t.size_unsafe(), 300u);
}

TEST(NbBst, ReclamationUnderChurn) {
  EpochReclaimer dom;
  {
    NbBst<long, std::less<long>, EpochReclaimer> t(dom);
    Xoshiro256 rng(66);
    for (int i = 0; i < 100000; ++i) {
      const long k = static_cast<long>(rng.next_bounded(64));
      if (rng.next_bounded(2)) {
        t.insert(k);
      } else {
        t.erase(k);
      }
    }
    EXPECT_GT(dom.freed_count(), dom.retired_count() / 2);
  }
  dom.quiescent_flush();
  EXPECT_EQ(dom.pending_count(), 0u);
}

TEST(NbBst, StatsCounting) {
  NbBst<long, std::less<long>, EpochReclaimer, CountingOpStats> t;
  for (long k = 0; k < 20; ++k) t.insert(k);
  for (long k = 0; k < 20; ++k) t.erase(k);
  const OpStatsSnapshot s = t.stats().snapshot();
  EXPECT_EQ(s.commits, 40u);
  EXPECT_GE(s.attempts, 40u);
}

}  // namespace
}  // namespace pnbbst

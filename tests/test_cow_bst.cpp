#include "baseline/cow_bst.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common.h"

namespace pnbbst {
namespace {

using Tree = CowBst<long>;

TEST(CowBst, Basics) {
  Tree t;
  EXPECT_FALSE(t.contains(3));
  EXPECT_TRUE(t.insert(3));
  EXPECT_FALSE(t.insert(3));
  EXPECT_TRUE(t.contains(3));
  EXPECT_TRUE(t.erase(3));
  EXPECT_FALSE(t.erase(3));
  EXPECT_EQ(t.size(), 0u);
}

class CowModelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CowModelFuzz, MatchesStdSet) {
  Tree t;
  const auto model = test::run_model_ops(t, GetParam(), 5000, 200);
  EXPECT_EQ(t.size(), model.size());
  std::vector<long> expect(model.begin(), model.end());
  EXPECT_EQ(t.range_scan(0, 200), expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CowModelFuzz, ::testing::Values(4, 5, 6));

TEST(CowBst, ScanIsASnapshot) {
  // Unlike NB-BST's unsafe scan, a COW scan must be atomic: pairs of keys
  // written in one direction can never appear inverted (same property as
  // PNB-BST's PairOrdering test).
  Tree t;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Xoshiro256 rng(8);
    while (!stop) {
      const long pair = static_cast<long>(rng.next_bounded(32));
      const long a = 2 * pair, b = 2 * pair + 1;
      if (rng.next_bounded(2)) {
        t.insert(a);
        t.insert(b);
      } else {
        t.erase(b);
        t.erase(a);
      }
    }
  });
  for (int s = 0; s < 300; ++s) {
    const auto v = t.range_scan(0, 64);
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] % 2 == 1) {
        ASSERT_TRUE(i > 0 && v[i - 1] == v[i] - 1)
            << "snapshot tear: saw " << v[i] << " without partner";
      }
    }
  }
  stop = true;
  writer.join();
}

TEST(CowBst, ConcurrentWritersReconcile) {
  EpochReclaimer dom;
  {
    CowBst<long, std::less<long>, EpochReclaimer> t(dom);
    constexpr long kRange = 32;
    std::vector<std::thread> pool;
    std::atomic<long> net{0};
    for (unsigned ti = 0; ti < 4; ++ti) {
      pool.emplace_back([&, ti] {
        Xoshiro256 rng(thread_seed(700, ti));
        long local = 0;
        for (int i = 0; i < 10000; ++i) {
          const long k = static_cast<long>(rng.next_bounded(kRange));
          if (rng.next_bounded(2)) {
            if (t.insert(k)) ++local;
          } else {
            if (t.erase(k)) --local;
          }
        }
        net.fetch_add(local);
      });
    }
    for (auto& th : pool) th.join();
    EXPECT_EQ(t.size(), static_cast<std::size_t>(net.load()));
  }
  dom.quiescent_flush();
  EXPECT_EQ(dom.pending_count(), 0u);
}

TEST(CowBst, RetriesAreCountedUnderContention) {
  EpochReclaimer dom;
  CowBst<long, std::less<long>, EpochReclaimer, CountingOpStats> t(dom);
  std::vector<std::thread> pool;
  for (unsigned ti = 0; ti < 4; ++ti) {
    pool.emplace_back([&, ti] {
      Xoshiro256 rng(thread_seed(701, ti));
      for (int i = 0; i < 5000; ++i) {
        const long k = static_cast<long>(rng.next_bounded(16));
        if (rng.next_bounded(2)) {
          t.insert(k);
        } else {
          t.erase(k);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  // attempts >= commits; on a contended root, attempts usually exceed.
  const OpStatsSnapshot s = t.stats().snapshot();
  EXPECT_GE(s.attempts, s.commits);
}

TEST(CowBst, ReclaimsReplacedPaths) {
  EpochReclaimer dom;
  {
    CowBst<long, std::less<long>, EpochReclaimer> t(dom);
    for (int round = 0; round < 20; ++round) {
      for (long k = 0; k < 64; ++k) t.insert(k);
      for (long k = 0; k < 64; ++k) t.erase(k);
    }
  }
  dom.quiescent_flush();
  EXPECT_GT(dom.retired_count(), 1000u);  // path copying retires a lot
  EXPECT_EQ(dom.pending_count(), 0u);
}

}  // namespace
}  // namespace pnbbst

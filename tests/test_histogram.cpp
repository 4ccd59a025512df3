#include "util/histogram.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "util/random.h"

namespace pnbbst {
namespace {

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.p99(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, SmallValuesExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < 64; ++v) h.record(v);
  // Values below kSubBuckets are stored exactly.
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(1.0), 63u);
  EXPECT_EQ(h.count(), 64u);
}

TEST(Histogram, IndexValueRoundTripAccuracy) {
  // value_for(index_for(v)) must be within ~1.6% of v (2/kSubBuckets).
  Xoshiro256 rng(1);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.next() >> (i % 40);
    const std::uint64_t rep = Histogram::value_for(Histogram::index_for(v));
    const double err =
        std::abs(static_cast<double>(rep) - static_cast<double>(v));
    EXPECT_LE(err, static_cast<double>(v) / 32.0 + 1.0) << "v=" << v;
  }
}

TEST(Histogram, IndexMonotone) {
  std::size_t prev = 0;
  for (std::uint64_t v = 1; v < (1u << 20); v += 97) {
    const std::size_t idx = Histogram::index_for(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(Histogram, QuantilesOrdered) {
  Histogram h;
  Xoshiro256 rng(2);
  for (int i = 0; i < 100000; ++i) h.record(rng.next_bounded(1000000));
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
  EXPECT_LE(h.p99(), h.p999());
  EXPECT_LE(h.p999(), h.max());
}

TEST(Histogram, UniformMedianNearHalf) {
  Histogram h;
  Xoshiro256 rng(3);
  for (int i = 0; i < 200000; ++i) h.record(rng.next_bounded(1000000));
  EXPECT_NEAR(static_cast<double>(h.p50()), 500000.0, 500000.0 * 0.05);
}

TEST(Histogram, MeanMatches) {
  Histogram h;
  for (std::uint64_t v : {10u, 20u, 30u}) h.record(v);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a, b;
  a.record(100);
  a.record(200);
  b.record(1000000);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 1000000u);
}

TEST(Histogram, MergeOfEmptyIsNoop) {
  Histogram a, b;
  a.record(5);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.quantile(0.5), 5u);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(42);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, SummaryMentionsCount) {
  Histogram h;
  h.record(7);
  EXPECT_NE(h.summary().find("n=1"), std::string::npos);
}

TEST(Histogram, QuantileClampsOutOfRangeArgs) {
  Histogram h;
  h.record(9);
  EXPECT_EQ(h.quantile(-1.0), 9u);
  EXPECT_EQ(h.quantile(2.0), 9u);
}

TEST(Histogram, CountLeIsCumulativeAndMonotone) {
  Histogram h;
  const std::uint64_t values[] = {1, 10, 100, 1000, 1000, 100000};
  for (const std::uint64_t v : values) h.record(v);
  EXPECT_EQ(h.count_le(0), 0u);
  // count_le answers at bucket resolution: a recorded value is counted
  // once the query reaches its bucket, and by the exact value at latest.
  EXPECT_GE(h.count_le(10), 2u);
  EXPECT_GE(h.count_le(1000), 5u);
  EXPECT_EQ(h.count_le(100000), 6u);
  EXPECT_EQ(h.count_le(UINT64_MAX), h.count());
  // Monotone in the argument across the whole le ladder.
  std::uint64_t prev = 0;
  for (std::uint64_t le = 1; le <= (1u << 20); le *= 2) {
    const std::uint64_t c = h.count_le(le);
    EXPECT_GE(c, prev) << "le=" << le;
    prev = c;
  }
}

// One writer records while another thread repeatedly merges the live
// histogram into fresh ones (the latency plane's scrape pattern): race-
// free under TSan, and once the writer joins the merge is exact.
TEST(Histogram, MergeWhileRecordingIsExactAfterJoin) {
  Histogram live;
  static constexpr std::uint64_t kValues = 50000;
  std::atomic<bool> done{false};
  std::thread reader([&live, &done] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      Histogram snap;
      snap.merge(live);
      EXPECT_LE(snap.count(), kValues);
      EXPECT_GE(snap.count(), last);  // one writer: counts only grow
      last = snap.count();
    }
  });
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  Xoshiro256 rng(11);
  for (std::uint64_t i = 0; i < kValues; ++i) {
    const std::uint64_t v = rng.next() >> (20 + i % 40);  // sum < 2^60
    live.record(v);
    sum += v;
    if (v > max) max = v;
  }
  done.store(true, std::memory_order_release);
  reader.join();
  Histogram merged;
  merged.merge(live);
  EXPECT_EQ(merged.count(), kValues);
  EXPECT_EQ(merged.sum(), sum);
  EXPECT_EQ(merged.max(), max);
  EXPECT_EQ(merged.p99(), live.p99());
}

}  // namespace
}  // namespace pnbbst

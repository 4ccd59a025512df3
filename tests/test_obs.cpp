// Observability plane (src/obs/, DESIGN.md §14): striped-counter and
// CountingOpStats exactness under threads, registry find-or-create
// identity and RAII unregistration, Prometheus text shape, latency-plane
// sampling accounting, and the mechanism-trace ring (wrap + per-thread
// ordering + Chrome JSON).
//
// The LatencyPlane/MechanismTrace subjects are process globals shared
// with other tests in this binary, so those cases assert on DELTAS,
// never absolute values; registry-shape cases use private
// MetricsRegistry instances.
#include "obs/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/adapters.h"
#include "obs/latency.h"
#include "obs/trace.h"
#include "core/pnb_bst.h"
#include "shard/sharded_map.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/striped_counter.h"

namespace pnbbst {
namespace {

TEST(StripedCounter, ThreadedExactness) {
  StripedCounter c;
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPer = 100000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPer; ++i) c.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kPer);
}

TEST(StripedCounter, AddAccumulates) {
  StripedCounter c;
  c.add(40);
  c.inc();
  c.inc();
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsRegistry, CounterFindOrCreateIdentity) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("t_total", "help", "k=\"1\"");
  obs::Counter& b = reg.counter("t_total", "other help", "k=\"1\"");
  obs::Counter& c = reg.counter("t_total", "help", "k=\"2\"");
  EXPECT_EQ(&a, &b);  // same (name, labels) -> same cells
  EXPECT_NE(&a, &c);  // distinct labels -> distinct cells
  a.add(3);
  c.inc();
  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "t_total");
  EXPECT_EQ(samples[0].labels, "k=\"1\"");
  EXPECT_DOUBLE_EQ(samples[0].value, 3.0);
  EXPECT_EQ(samples[1].labels, "k=\"2\"");
  EXPECT_DOUBLE_EQ(samples[1].value, 1.0);
}

TEST(MetricsRegistry, RegistrationRemovesCollectors) {
  obs::MetricsRegistry reg;
  {
    obs::Registration handle;
    reg.add_gauge(handle, "g", "a gauge", "", [] { return 7.0; });
    EXPECT_FALSE(handle.empty());
    const auto samples = reg.snapshot();
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_DOUBLE_EQ(samples[0].value, 7.0);
  }  // handle destroyed -> collector removed
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(MetricsRegistry, RegistrationMoveTransfersOwnership) {
  obs::MetricsRegistry reg;
  obs::Registration a;
  reg.add_gauge(a, "g", "a gauge", "", [] { return 1.0; });
  obs::Registration b = std::move(a);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(reg.snapshot().size(), 1u);
  b.reset();
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(MetricsRegistry, PrometheusTextShape) {
  obs::MetricsRegistry reg;
  reg.counter("pnb_test_ops_total", "Ops processed", "kind=\"put\"")
      .add(42);
  obs::Registration handle;
  reg.add_gauge(handle, "pnb_test_depth", "Current depth", "",
                [] { return 2.5; });
  const std::string text = reg.prometheus_text();
  // One HELP/TYPE header per family, samples after their header, counter
  // values printed without an exponent.
  EXPECT_NE(text.find("# HELP pnb_test_ops_total Ops processed\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pnb_test_ops_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("pnb_test_ops_total{kind=\"put\"} 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pnb_test_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("pnb_test_depth 2.5\n"), std::string::npos);
  // Headers precede every sample of their family.
  EXPECT_LT(text.find("# TYPE pnb_test_ops_total"),
            text.find("pnb_test_ops_total{"));
}

TEST(MetricsRegistry, LargeIntegralValuesStayExact) {
  obs::MetricsRegistry reg;
  reg.counter("big_total", "big").add(1234567890123ull);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("big_total 1234567890123\n"), std::string::npos);
}

TEST(LatencyPlane, SampleEveryNAccounting) {
  auto& plane = obs::LatencyPlane::global();
  plane.set_sample_every(1);  // sample every op on this thread
  const std::uint64_t before = plane.total_samples();
  const std::uint64_t scans_before =
      plane.merged(obs::OpClass::kScan).count();
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t t0 = plane.maybe_start();
    ASSERT_NE(t0, 0u);
    plane.finish(obs::OpClass::kScan, t0);
  }
  EXPECT_EQ(plane.total_samples() - before, 100u);
  EXPECT_EQ(plane.merged(obs::OpClass::kScan).count() - scans_before, 100u);
  plane.set_sample_every(0);
  EXPECT_EQ(plane.maybe_start(), 0u);  // disabled: never samples
  plane.finish(obs::OpClass::kScan, 0);  // and finish(0) is a no-op
  EXPECT_EQ(plane.total_samples() - before, 100u);
  plane.set_sample_every(obs::LatencyPlane::kDefaultSampleEvery);
}

TEST(MechanismTrace, RingWrapKeepsNewestInOrder) {
  auto& trace = obs::MechanismTrace::global();
  trace.set_enabled(true);
  const std::size_t tids_before = trace.thread_count();
  constexpr std::uint64_t kEvents = 3000;  // ~3x the ring
  std::thread recorder([&trace] {
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      trace.record(obs::TraceKind::kReshardCutover, i);
    }
  });
  recorder.join();
  trace.set_enabled(false);
  const auto events = trace.dump();
  // Keep only the recorder thread's events (new tid >= prior count).
  std::vector<obs::MechanismTrace::Event> mine;
  for (const auto& e : events) {
    if (e.tid >= tids_before) mine.push_back(e);
  }
  ASSERT_EQ(mine.size(), obs::MechanismTrace::kRingSlots);
  // The survivors are exactly the newest kRingSlots events, seq-ordered.
  for (std::size_t i = 0; i < mine.size(); ++i) {
    EXPECT_EQ(mine[i].arg, kEvents - obs::MechanismTrace::kRingSlots + i);
    EXPECT_EQ(mine[i].seq, kEvents - obs::MechanismTrace::kRingSlots + i);
    if (i > 0) {
      EXPECT_LT(mine[i - 1].seq, mine[i].seq);
      EXPECT_LE(mine[i - 1].ts_ns, mine[i].ts_ns);
    }
  }
}

TEST(MechanismTrace, DisabledRecordsNothing) {
  auto& trace = obs::MechanismTrace::global();
  trace.set_enabled(false);
  const std::size_t n = trace.dump().size();
  obs::trace_event(obs::TraceKind::kHelp, 99);
  EXPECT_EQ(trace.dump().size(), n);
}

TEST(MechanismTrace, ChromeJsonShape) {
  auto& trace = obs::MechanismTrace::global();
  trace.set_enabled(true);
  obs::trace_event(obs::TraceKind::kLeaseOpen, 5);
  trace.set_enabled(false);
  const std::string json = trace.chrome_json();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"lease_open\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

// Striped op stats are exact once the counting threads join: every
// update that returned true committed exactly once, and every commit
// took at least one attempt.
TEST(CountingOpStats, ConcurrentUpdatesCountExactly) {
  using Tree = PnbBst<long, std::less<long>, EpochReclaimer,
                      CountingOpStats>;
  Tree tree;
  constexpr long kThreads = 4;
  constexpr long kPerThread = 2000;
  std::atomic<std::uint64_t> succeeded{0};
  std::vector<std::thread> threads;
  for (long t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tree, &succeeded, t] {
      Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      std::uint64_t mine = 0;
      const long base = t * kPerThread;
      for (int i = 0; i < 4 * kPerThread; ++i) {
        const long k =
            base + static_cast<long>(rng.next_bounded(kPerThread));
        const bool changed = (rng.next() & 1) != 0 ? tree.insert(k)
                                                    : tree.erase(k);
        if (changed) ++mine;
      }
      succeeded.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  const OpStatsSnapshot s = tree.stats().snapshot();
  EXPECT_EQ(s.commits, succeeded.load());
  EXPECT_GE(s.attempts, s.commits);
}

// The sharded-map adapter fans out per-shard gauges and aggregates the
// engine family; exercised here against a private registry.
TEST(Adapters, ShardedMapCollectorEmitsFamilies) {
  using Map = ShardedPnbMap<long, long, 4, RangeSplitter<long>,
                            std::less<long>, EpochReclaimer,
                            CountingOpStats>;
  Map map(RangeSplitter<long>{0, 1024});
  for (long k = 0; k < 100; ++k) map.insert(k, k);
  obs::MetricsRegistry reg;
  obs::Registration handle;
  obs::register_sharded_map(reg, handle, map, "");
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("pnb_shard_size{shard=\"0\"}"), std::string::npos);
  EXPECT_NE(text.find("pnb_shard_size{shard=\"3\"}"), std::string::npos);
  EXPECT_NE(text.find("pnb_shard_commits_total"), std::string::npos);
  EXPECT_NE(text.find("pnb_engine_commits_total"), std::string::npos);
  EXPECT_NE(text.find("pnb_lifecycle_current_generation"),
            std::string::npos);
  EXPECT_NE(text.find("pnb_admission_admitted_total"), std::string::npos);
  // The shard sizes must sum to the map size, and the imbalance gauge is
  // max/mean of the same walk: keys 0..99 under an equal-width split of
  // [0, 1024) all land on shard 0 -> 100 / (100/4) = 4.0.
  double total = 0.0;
  double imbalance = 0.0;
  for (const auto& s : reg.snapshot()) {
    if (s.name == "pnb_shard_size") total += s.value;
    if (s.name == "pnb_shard_imbalance_ratio") imbalance = s.value;
  }
  EXPECT_DOUBLE_EQ(total, 100.0);
  EXPECT_DOUBLE_EQ(imbalance, 4.0);
  EXPECT_NE(text.find("# TYPE pnb_shard_imbalance_ratio gauge\n"),
            std::string::npos);
}

// Native le-bucketed histogram exposition next to the summary: declared
// as TYPE histogram, bucket counts cumulative and non-decreasing in
// NUMERIC le order, terminal +Inf bucket == _hist_count == the summary
// _count for the same class. (The exposition page itself orders samples
// lexicographically by label string — tools/obs_scrape.py re-sorts by
// numeric le before checking, and so does this test.)
TEST(Adapters, LatencyHistogramExpositionShape) {
  auto& plane = obs::LatencyPlane::global();
  plane.set_sample_every(1);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t t0 = plane.maybe_start();
    ASSERT_NE(t0, 0u);
    plane.finish(obs::OpClass::kInsert, t0);
  }
  plane.set_sample_every(obs::LatencyPlane::kDefaultSampleEvery);

  obs::MetricsRegistry reg;
  obs::Registration handle;
  obs::register_latency(reg, handle, plane, "");

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE pnb_op_latency_ns_hist histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pnb_op_latency_ns_count counter\n"),
            std::string::npos);

  double count = -1.0;
  double hist_count = -1.0;
  double sum = -1.0;
  double hist_sum = -1.0;
  double inf = -1.0;
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  for (const auto& s : reg.snapshot()) {
    if (s.labels.find("op=\"insert\"") == std::string::npos) continue;
    if (s.name == "pnb_op_latency_ns_count") count = s.value;
    if (s.name == "pnb_op_latency_ns_hist_count") hist_count = s.value;
    if (s.name == "pnb_op_latency_ns_sum") sum = s.value;
    if (s.name == "pnb_op_latency_ns_hist_sum") hist_sum = s.value;
    if (s.name == "pnb_op_latency_ns_hist_bucket") {
      const auto pos = s.labels.find("le=\"");
      ASSERT_NE(pos, std::string::npos) << s.labels;
      const auto end = s.labels.find('"', pos + 4);
      const std::string le = s.labels.substr(pos + 4, end - pos - 4);
      if (le == "+Inf") {
        inf = s.value;
      } else {
        buckets.emplace_back(std::stod(le), s.value);
      }
    }
  }
  // The global plane is shared across this binary, so counts are >= what
  // this test recorded; the three totals must still agree exactly.
  ASSERT_GE(count, 200.0);
  EXPECT_DOUBLE_EQ(hist_count, count);
  EXPECT_DOUBLE_EQ(inf, count);
  // Both sums are the merged histogram's exact sum, not a bucket
  // estimate.
  EXPECT_DOUBLE_EQ(sum, hist_sum);
  EXPECT_DOUBLE_EQ(
      sum,
      static_cast<double>(plane.merged(obs::OpClass::kInsert).sum()));
  ASSERT_EQ(buckets.size(), obs::kLatencyBucketCount);
  std::sort(buckets.begin(), buckets.end());
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GE(buckets[i].second, buckets[i - 1].second)
        << "bucket le=" << buckets[i].first << " not cumulative";
  }
  EXPECT_LE(buckets.back().second, inf);
}

// Periodic dump-to-file: incremental flushes keep history the in-memory
// ring loses to wrap, and an overrun between flushes is COUNTED instead
// of silently truncating the record.
TEST(MechanismTrace, PeriodicDumpKeepsWrappedHistoryAndCountsDrops) {
  constexpr std::size_t kSlots = obs::MechanismTrace::kRingSlots;
  auto& trace = obs::MechanismTrace::global();
  trace.set_enabled(true);
  const std::string path = ::testing::TempDir() + "pnb_trace_dump.json";
  ASSERT_TRUE(
      trace.start_periodic_dump(path, std::chrono::hours(1)));
  // Second start while running is refused, not a restart.
  EXPECT_FALSE(
      trace.start_periodic_dump(path, std::chrono::hours(1)));

  // Drain whatever earlier tests left in the rings so the deltas below
  // are exact for this thread's stream.
  trace.flush_periodic_dump();
  const std::uint64_t base_written = trace.periodic_dump_written();
  const std::uint64_t base_dropped = trace.periodic_dump_dropped();

  // 3x the ring capacity, flushed once per lap: every event reaches the
  // file even though the ring only retains the last kRingSlots.
  for (int lap = 0; lap < 3; ++lap) {
    for (std::uint64_t i = 0; i < kSlots; ++i) {
      obs::trace_event(obs::TraceKind::kHelp, i);
    }
    trace.flush_periodic_dump();
  }
  EXPECT_EQ(trace.periodic_dump_written() - base_written, 3 * kSlots);
  EXPECT_EQ(trace.periodic_dump_dropped(), base_dropped);

  // Two unflushed laps: exactly one lap's worth is gone — and accounted.
  for (std::uint64_t i = 0; i < 2 * kSlots; ++i) {
    obs::trace_event(obs::TraceKind::kHelp, i);
  }
  trace.flush_periodic_dump();
  EXPECT_EQ(trace.periodic_dump_dropped() - base_dropped, kSlots);

  trace.set_enabled(false);
  trace.stop_periodic_dump();
  trace.stop_periodic_dump();  // idempotent

  // The file is a well-terminated JSON array of one-line instant events.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string body = ss.str();
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.front(), '[');
  EXPECT_EQ(body.substr(body.size() - 2), "]\n");
  std::size_t events = 0;
  for (std::size_t pos = body.find("{\"name\":");
       pos != std::string::npos; pos = body.find("{\"name\":", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, trace.periodic_dump_written());
  EXPECT_NE(body.find("\"name\":\"help\""), std::string::npos);
}

TEST(MechanismTrace, PeriodicDumpBackgroundThreadFlushesOnItsOwn) {
  auto& trace = obs::MechanismTrace::global();
  trace.set_enabled(true);
  const std::string path =
      ::testing::TempDir() + "pnb_trace_dump_bg.json";
  ASSERT_TRUE(
      trace.start_periodic_dump(path, std::chrono::milliseconds(1)));
  for (int i = 0; i < 100; ++i) {
    obs::trace_event(obs::TraceKind::kReshardCutover, 1);
  }
  // No manual flush: the background thread must pick the events up.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (trace.periodic_dump_written() < 100 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(trace.periodic_dump_written(), 100u);
  trace.set_enabled(false);
  trace.stop_periodic_dump();
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
}

}  // namespace
}  // namespace pnbbst

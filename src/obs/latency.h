// Sampled op-latency plane: 1-in-N operations get a steady-clock
// timestamp pair recorded into a per-thread util/histogram.h Histogram,
// one per op class (find/insert/erase/scan/batch). Scrapes merge the
// per-thread histograms with Histogram::merge and export Prometheus
// summary samples (p50/p90/p99/p999 + _count/_sum).
//
// Cost model: the un-sampled path is one thread-local countdown
// decrement and a branch (maybe_start() returns 0); a sampled op adds
// two now_ns() calls and one record() into a thread-exclusive
// Histogram. sample_every == 0 disables the plane entirely
// (maybe_start() is a constant branch). Each histogram has a single
// writer, and Histogram's relaxed-atomic counters make a concurrent
// merge-on-scrape of another thread's histogram race-free under TSan
// without a locked increment on the recording side.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/histogram.h"
#include "util/timer.h"

namespace pnbbst::obs {

enum class OpClass : std::uint8_t {
  kFind = 0,
  kInsert = 1,
  kErase = 2,
  kScan = 3,
  kBatch = 4,
  kCount
};

inline const char* op_class_name(OpClass c) noexcept {
  switch (c) {
    case OpClass::kFind:
      return "find";
    case OpClass::kInsert:
      return "insert";
    case OpClass::kErase:
      return "erase";
    case OpClass::kScan:
      return "scan";
    case OpClass::kBatch:
      return "batch";
    case OpClass::kCount:
      break;
  }
  return "unknown";
}

// Fixed le ladder (ns) for the native Prometheus histogram exposition
// (obs/adapters.h register_latency): sub-µs point ops through second-scale
// stalls. Cumulative bucket counts come from Histogram::count_le, so each
// boundary is resolved to the underlying log-bucket grid (~1.6% relative
// error); the terminal +Inf bucket is the exact total count. A fixed
// ladder (vs. per-scrape quantiles) is what aggregation across instances
// and PromQL histogram_quantile() need.
inline constexpr std::uint64_t kLatencyBucketBoundsNs[] = {
    250,        500,        1'000,       2'500,       5'000,
    10'000,     25'000,     50'000,      100'000,     250'000,
    1'000'000,  2'500'000,  10'000'000,  100'000'000, 1'000'000'000};
inline constexpr std::size_t kLatencyBucketCount =
    sizeof(kLatencyBucketBoundsNs) / sizeof(kLatencyBucketBoundsNs[0]);

class LatencyPlane {
 public:
  static constexpr std::uint32_t kDefaultSampleEvery = 64;

  static LatencyPlane& global() {
    static LatencyPlane* p = new LatencyPlane();  // immortal
    return *p;
  }

  // 0 disables sampling entirely; N samples every Nth op per thread.
  void set_sample_every(std::uint32_t n) noexcept {
    sample_every_.store(n, std::memory_order_relaxed);
  }
  std::uint32_t sample_every() const noexcept {
    return sample_every_.load(std::memory_order_relaxed);
  }

  // Returns a start timestamp when this op is sampled, else 0. The
  // fast path is a thread-local countdown decrement and two branches.
  std::uint64_t maybe_start() noexcept {
    const std::uint32_t every =
        sample_every_.load(std::memory_order_relaxed);
    if (every == 0) return 0;
    ThreadRec& rec = this_thread_rec();
    if (--rec.countdown != 0) return 0;
    rec.countdown = every;
    return now_ns();
  }

  // Companion to maybe_start(): no-op when start == 0.
  void finish(OpClass cls, std::uint64_t start) noexcept {
    if (start == 0) return;
    ThreadRec& rec = this_thread_rec();
    const auto i = static_cast<std::size_t>(cls);
    // Lazily bound so idle classes cost no memory; the pointer is
    // atomic (single writer, concurrent scrape readers) and published
    // with release so readers see a fully constructed histogram.
    Histogram* h = rec.hists[i].load(std::memory_order_relaxed);
    if (h == nullptr) {
      h = new Histogram();
      rec.hists[i].store(h, std::memory_order_release);
    }
    h->record(now_ns() - start);
  }

  // Merged view of one op class across all threads.
  Histogram merged(OpClass cls) const {
    Histogram out;
    std::lock_guard<std::mutex> lock(recs_mu_);
    for (const auto& rec : recs_) {
      const Histogram* h = rec->hists[static_cast<std::size_t>(cls)].load(
          std::memory_order_acquire);
      if (h != nullptr) out.merge(*h);
    }
    return out;
  }

  std::uint64_t total_samples() const {
    std::uint64_t n = 0;
    std::lock_guard<std::mutex> lock(recs_mu_);
    for (const auto& rec : recs_) {
      for (const auto& slot : rec->hists) {
        const Histogram* h = slot.load(std::memory_order_acquire);
        if (h != nullptr) n += h->count();
      }
    }
    return n;
  }

 private:
  struct ThreadRec {
    std::uint32_t countdown = 1;  // first op after enabling is sampled
    std::atomic<Histogram*> hists[static_cast<std::size_t>(OpClass::kCount)] =
        {};

    ~ThreadRec() {
      for (auto& slot : hists) {
        delete slot.load(std::memory_order_relaxed);
      }
    }
  };

  LatencyPlane() = default;

  ThreadRec& this_thread_rec() {
    // Owned by the immortal plane so merges survive thread exit.
    static thread_local ThreadRec* rec = [this] {
      auto owned = std::make_unique<ThreadRec>();
      ThreadRec* raw = owned.get();
      std::lock_guard<std::mutex> lock(recs_mu_);
      recs_.push_back(std::move(owned));
      return raw;
    }();
    return *rec;
  }

  std::atomic<std::uint32_t> sample_every_{kDefaultSampleEvery};
  mutable std::mutex recs_mu_;
  std::vector<std::unique_ptr<ThreadRec>> recs_;
};

}  // namespace pnbbst::obs

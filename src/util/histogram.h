// Log-bucketed latency histogram with percentile queries.
//
// Buckets are HdrHistogram-style: 64 major (power-of-two) groups with
// kSubBuckets linear sub-buckets each, giving ~1.6% relative error across
// the full 64-bit nanosecond range with a fixed, allocation-free footprint.
// Recording is wait-free per thread; merge() combines per-thread
// histograms, and may read a histogram whose one writer is still
// recording (obs/latency.h merges live per-thread histograms this way).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pnbbst {

class Histogram {
 public:
  static constexpr std::size_t kSubBits = 6;  // 64 sub-buckets per octave
  static constexpr std::size_t kSubBuckets = 1u << kSubBits;
  // Values < kSubBuckets are exact (one linear octave-group), then one
  // group per remaining octave up to msb 63 — so the largest index,
  // (63 - kSubBits + 1) * kSubBuckets + (kSubBuckets - 1), is in range
  // for the full 64-bit domain.
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSubBuckets;

  Histogram() : counts_(kBuckets, 0) {}

  void record(std::uint64_t value) noexcept {
    bump(counts_[index_for(value)], 1);
    bump(total_, 1);
    if (value > load(max_seen_)) store(max_seen_, value);
    bump(sum_, value);
  }

  // Folds `other` in. Reads `other` through relaxed atomics, so it may
  // be merged while its single writer keeps recording (the result then
  // lags that writer by the in-flight records).
  void merge(const Histogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      bump(counts_[i], load(other.counts_[i]));
    }
    bump(total_, load(other.total_));
    bump(sum_, load(other.sum_));
    const std::uint64_t other_max = load(other.max_seen_);
    if (other_max > load(max_seen_)) store(max_seen_, other_max);
  }

  std::uint64_t count() const noexcept { return load(total_); }
  std::uint64_t max() const noexcept { return load(max_seen_); }
  // Exact sum of every recorded value (not bucket-rounded).
  std::uint64_t sum() const noexcept { return load(sum_); }
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  }

  // Value at quantile q in [0,1]; returns the representative (midpoint)
  // value of the containing bucket.
  std::uint64_t quantile(double q) const noexcept;

  // Cumulative count backing le-bucketed Prometheus exposition
  // (obs/adapters.h): recorded values in buckets up to and including v's
  // bucket. Exact to bucket resolution (~1.6% relative error — values
  // sharing v's bucket but greater than v are included); monotone in v
  // because index_for is monotone.
  std::uint64_t count_le(std::uint64_t v) const noexcept {
    const std::size_t last = index_for(v);
    std::uint64_t n = 0;
    for (std::size_t i = 0; i <= last; ++i) n += load(counts_[i]);
    return n;
  }

  std::uint64_t p50() const noexcept { return quantile(0.50); }
  std::uint64_t p90() const noexcept { return quantile(0.90); }
  std::uint64_t p99() const noexcept { return quantile(0.99); }
  std::uint64_t p999() const noexcept { return quantile(0.999); }

  void reset() noexcept {
    for (std::uint64_t& c : counts_) store(c, 0);
    store(total_, 0);
    store(sum_, 0);
    store(max_seen_, 0);
  }

  // Human-readable one-line summary (ns assumed).
  std::string summary() const;

  static std::size_t index_for(std::uint64_t value) noexcept {
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    const int msb = 63 - __builtin_clzll(value);
    const auto shift = static_cast<unsigned>(msb) - kSubBits;
    const std::size_t sub = (value >> shift) & (kSubBuckets - 1);
    const std::size_t index =
        (static_cast<std::size_t>(msb) - kSubBits + 1) * kSubBuckets + sub;
    // Values with the top octaves set (>= 2^63) would index past the
    // table; saturate into the last bucket instead of writing OOB.
    return index < kBuckets ? index : kBuckets - 1;
  }

  static std::uint64_t value_for(std::size_t index) noexcept {
    if (index < kSubBuckets) return index;
    const std::size_t octave = index / kSubBuckets;     // >= 1
    const std::size_t sub = index % kSubBuckets;
    const unsigned shift = static_cast<unsigned>(octave) - 1;
    const std::uint64_t base = (kSubBuckets + sub) << shift;
    const std::uint64_t width = 1ull << shift;
    return base + width / 2;  // midpoint
  }

 private:
  // Every counter is accessed through a relaxed atomic_ref: one writer
  // (record/merge/reset) plus any number of concurrent readers is
  // race-free, and with a single writer an increment needs no locked
  // read-modify-write — on x86-64 it is a plain load, add and store.
  static std::uint64_t load(const std::uint64_t& c) noexcept {
    return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(c))
        .load(std::memory_order_relaxed);
  }
  static void store(std::uint64_t& c, std::uint64_t v) noexcept {
    std::atomic_ref<std::uint64_t>(c).store(v, std::memory_order_relaxed);
  }
  static void bump(std::uint64_t& c, std::uint64_t n) noexcept {
    store(c, load(c) + n);
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_seen_ = 0;
};

}  // namespace pnbbst

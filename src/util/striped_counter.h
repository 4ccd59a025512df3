// Monotone counter with per-thread cacheline-striped cells.
//
// Concurrent increments from different threads land on different cache
// lines, so a hot counter does not bounce a line between cores; value()
// sums the stripes at read time. Shared by the tree stats policy
// (core/op_stats.h) and the metrics registry's Counter (obs/registry.h).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/cacheline.h"

namespace pnbbst {

class StripedCounter {
 public:
  static constexpr std::size_t kStripes = 16;

  void add(std::uint64_t n) noexcept {
    cells_[this_thread_stripe()].value.fetch_add(n,
                                                 std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& c : cells_) {
      total += c.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static std::size_t this_thread_stripe() noexcept {
    // Round-robin, fixed once per thread: the first kStripes threads of
    // the process never share a stripe (a thread-id hash collides for
    // ~1 in 5 three-thread runs).
    static std::atomic<std::size_t> next{0};
    static thread_local const std::size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripe;
  }

  CachePadded<std::atomic<std::uint64_t>> cells_[kStripes];
};

}  // namespace pnbbst

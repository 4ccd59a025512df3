// Calibration block: what the machine and build looked like when a run was
// taken. Recorded next to the metrics so figures from different machines
// are not compared blindly; never compared itself.
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cstring>
#include <numeric>
#include <thread>

#include "perfbench.h"
#include "util/random.h"
#include "util/spin_barrier.h"

namespace perfbench {

namespace {

constexpr std::size_t kChaseBytes = 16u << 20;
constexpr std::size_t kLine = 64;
constexpr std::size_t kHops = 1u << 20;

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

// One dependent load per cache line, in a random single cycle through a
// 16 MiB buffer (Sattolo's shuffle), so every hop misses the private
// caches. Returns ns per hop.
double chase(std::uint64_t seed, pnbbst::SpinBarrier& start) {
  const std::size_t lines = kChaseBytes / kLine;
  constexpr std::size_t kStride = kLine / sizeof(std::size_t);
  std::vector<std::size_t> next(lines);
  std::iota(next.begin(), next.end(), std::size_t{0});
  pnbbst::Xoshiro256 rng(seed);
  for (std::size_t i = lines - 1; i > 0; --i) {
    std::swap(next[i], next[rng.next_bounded(i)]);
  }
  std::vector<std::size_t> buf(lines * kStride);
  for (std::size_t i = 0; i < lines; ++i) buf[i * kStride] = next[i];
  start.arrive_and_wait();
  std::size_t at = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t h = 0; h < kHops; ++h) at = buf[at * kStride];
  const std::uint64_t ns = now_ns() - t0;
  volatile std::size_t sink = at;  // keeps the chain from being elided
  (void)sink;
  return static_cast<double>(ns) / static_cast<double>(kHops);
}

// Mean ns/hop over `threads` concurrent chasers.
double chase_ns(unsigned threads) {
  std::vector<double> ns(threads);
  pnbbst::SpinBarrier start(threads);
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < threads; ++i) {
    pool.emplace_back([&, i] {
      pin_to_slot(1 + i);  // where the workload's client threads ran
      ns[i] = chase(0x5EED + i, start);
    });
  }
  for (std::thread& t : pool) t.join();
  return std::accumulate(ns.begin(), ns.end(), 0.0) / threads;
}

}  // namespace

std::string calibration_json() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + json_str(cpu_model()) +
         ", \"l3_bytes\": " + std::to_string(l3 > 0 ? l3 : 0) +
         ", \"chase_16mib_ns_per_hop_1t\": " + json_num(chase_ns(1)) +
         ", \"chase_16mib_ns_per_hop_3t\": " + json_num(chase_ns(3)) +
         ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_str(
#if defined(__clang__)
                                  "clang "
#else
                                  "gcc "
#endif
                                  __VERSION__) +
         "}";
}

}  // namespace perfbench

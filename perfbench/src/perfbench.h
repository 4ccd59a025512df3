// perfbench — shared types of the benchmark harness.
//
// The harness drives only public functions of the stack and measures each
// layer from outside: it times its own calls into PnbBst, PnbMap,
// ShardedPnbMap (as net::ServerMap), net::Server and net::Client, and reads
// the layers' public counters. One process runs one workload (the reclaimer
// and the arena domains are process-wide, so an earlier workload would skew
// memory figures of a later one).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/op_stats.h"
#include "loadgen/client.h"
#include "mem/arena.h"
#include "server/server.h"
#include "util/histogram.h"
#include "util/timer.h"
#include "workload/workload.h"

namespace perfbench {

using pnbbst::Histogram;
using pnbbst::now_ns;
using pnbbst::WorkloadMix;
using pnbbst::net::ServerMap;
using Key = std::int64_t;

inline constexpr std::size_t kPageSize = 16;     // range_first page length
inline constexpr std::int64_t kScanWidth = 256;  // fixed-width scan span
inline constexpr unsigned kWindow = 16;          // pipelined requests/window

// --- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  std::int64_t key_range;  // keys are drawn from [0, key_range)
  bool served;             // true: over a loopback net::Server
  bool pages;              // true: range ops alternate scan and page
  // One op mix per client thread (in-process) or per connection (served).
  std::vector<WorkloadMix> mixes;
};

// nullptr when `name` is not a workload.
const Workload* find_workload(const std::string& name);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;         // Chrome trace JSON written by trace runs
  std::int64_t census_bias = 0;  // test hook: shifts the expected census
};

// --- Calls -------------------------------------------------------------------

enum class Call : std::uint8_t { kGet, kInsert, kErase, kScan, kPage };

struct Req {
  Call call;
  Key lo;
  Key hi = 0;  // scans and pages only
};

bool is_update(Call c) noexcept;
bool is_query(Call c) noexcept;  // scan or page

// Turns a seeded OpStream into calls: finds become gets, and range ops
// become fixed-width scans [lo, lo+255] or, with `pages`, alternate
// between such a scan and a cursor page range_first(lo, key_range-1, 16).
// Hashes the first kPrefixOps calls so two runs can prove they issued the
// same stream.
class CallStream {
 public:
  static constexpr std::uint32_t kPrefixOps = 1024;

  CallStream(const WorkloadMix& mix, Key key_range, std::uint64_t seed,
             unsigned stream_id, bool pages);
  Req next();
  std::uint64_t prefix_hash() const noexcept { return hash_; }

 private:
  pnbbst::OpStream stream_;
  Key key_range_;
  bool pages_;
  bool page_next_ = false;
  std::uint32_t hashed_ = 0;
  std::uint64_t hash_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
};

// --- Timed phases ------------------------------------------------------------

// A measured window [t0, t_end). Throughput is counted per 250 ms slice
// and latency per one-second slice, so each can be reported as a median
// over slices: a stall on a shared machine moves a few slices, not the
// figure.
struct Phase {
  static constexpr std::uint64_t kSliceNs = 250'000'000;
  static constexpr std::uint64_t kLatencySliceNs = 1'000'000'000;

  std::uint64_t t0 = 0;
  std::uint64_t t_end = 0;
  std::size_t slices = 1;
  std::size_t latency_slices = 1;

  static Phase starting_now(double seconds);
  // Slice index of time t; `slices` (resp. `latency_slices`) once t is
  // past the last whole slice.
  std::size_t slice_of(std::uint64_t t) const noexcept;
  std::size_t latency_slice_of(std::uint64_t t) const noexcept;
};

// Per-thread results of one phase; merged after the threads join.
struct Tally {
  // Latency in ns of point calls, scans and pages, per latency slice.
  std::vector<Histogram> point, scan, page;
  std::vector<std::uint64_t> slice_ops, slice_updates;
  std::uint64_t ops = 0;       // calls issued
  std::uint64_t failed = 0;    // transport error or unexpected status
  std::uint64_t updates = 0;   // insert/erase (PUT/DEL) calls answered
  std::uint64_t queries = 0;   // scans + pages answered
  std::uint64_t inserted = 0;  // acknowledged inserts (key was absent)
  std::uint64_t erased = 0;    // acknowledged erases (key was present)
  std::uint64_t check_failures = 0;
  std::vector<std::string> errors;  // first few check failures
  std::uint64_t prefix_hash = 0;

  explicit Tally(const Phase& p)
      : point(p.latency_slices),
        scan(p.latency_slices),
        page(p.latency_slices),
        slice_ops(p.slices, 0),
        slice_updates(p.slices, 0) {}

  // Records one answered call that completed at `end` after `ns`; calls
  // that end after the phase count for the census only.
  void done(const Phase& p, Call c, std::uint64_t end, std::uint64_t ns);
  void fail_check(std::string what);
  void merge(const Tally& o);
};

// Checks one answered call; failures go to `t`.
void check_get(const Req& r, const std::optional<Key>& v, Tally& t);
void check_query(const Req& r, const std::vector<std::pair<Key, Key>>& pairs,
                 Tally& t);

// Runs one call against a map (PnbMap or ShardedPnbMap), then checks its
// answer; returns the time the call returned, before the check ran.
template <class Map>
std::uint64_t apply(Map& m, const Req& r, Tally& t) {
  std::uint64_t end = 0;
  switch (r.call) {
    case Call::kGet: {
      const std::optional<Key> v = m.get(r.lo);
      end = now_ns();
      check_get(r, v, t);
      break;
    }
    case Call::kInsert:
      t.inserted += m.insert(r.lo, r.lo);
      end = now_ns();
      break;
    case Call::kErase:
      t.erased += m.erase(r.lo);
      end = now_ns();
      break;
    case Call::kScan: {
      const auto pairs = m.range_scan(r.lo, r.hi);
      end = now_ns();
      check_query(r, pairs, t);
      break;
    }
    case Call::kPage: {
      const auto pairs = m.range_first(r.lo, r.hi, kPageSize);
      end = now_ns();
      check_query(r, pairs, t);
      break;
    }
  }
  return end;
}

// CPU placement. Every busy thread of a run gets its own CPU slot (slots
// map round-robin onto the CPUs this process may use): slot 0 for the
// main thread, then the server's loop threads and the client threads.
// Left to itself the scheduler's wake-affine placement sometimes stacks a
// client on the server's CPU, and a run then reads 2x slower with
// millisecond tails. Pins the calling thread to slots [slot, slot+count).
void pin_to_slot(std::size_t slot, std::size_t count = 1);

// Keeps every CPU of the process busy at the lowest priority (SCHED_IDLE
// spinners) while it lives, so no vCPU halts: on a VM a halted vCPU's
// wake-up waits on the hypervisor, and a loopback round trip wakes two.
// Any runnable thread preempts a spinner at once.
class KeepAwake {
 public:
  KeepAwake();
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> spinners_;
};

// Persistent client threads. The same threads prefill the map and then
// run the workload: arena slots return to the shard of the thread that
// allocated them (mem/arena.h), so nodes prefilled by some other thread
// would be freed into a shard no worker allocates from, and resident
// memory would then depend on how thread ids hash onto arena shards.
class Crew {
 public:
  // Thread i runs pinned to CPU slot first_slot + i.
  Crew(std::size_t n, std::size_t first_slot);
  ~Crew();
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  std::size_t size() const noexcept { return threads_.size(); }
  // Runs fn(i) on every thread i and returns when all have finished.
  void run(const std::function<void(std::size_t)>& fn);

 private:
  void loop(std::size_t i);

  std::mutex mu_;
  std::condition_variable wake_, done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t running_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

// One timed phase run by a crew, merged.
struct PhaseResult {
  Phase phase;
  Tally tally;
};

// Runs body(i, phase, tally) on every crew thread over one phase of
// `seconds`; each thread stops on its own once the phase's end has passed.
PhaseResult run_phase(
    Crew& crew, double seconds,
    const std::function<void(std::size_t, const Phase&, Tally&)>& body);

// The seeded prefill key set: draws from [0, key_range) until half the
// range is distinct keys, in draw order (pnbbst::prefill's sequence).
std::vector<Key> prefill_keys(Key key_range, std::uint64_t seed);

// Median over the phase of a latency quantile: consecutive latency slices
// are grouped until each group holds at least 1000 samples (so p99 has 10
// beyond it), and the median of the groups' quantiles is returned.
double sliced_quantile_ns(const std::vector<Histogram>& slices, double q);

// --- Tracing -----------------------------------------------------------------

enum class SpanName : std::uint8_t {
  kGet,
  kInsert,
  kErase,
  kScan,
  kPage,
  kWindow,   // one pipelined window: send, then wait for every reply
  kSend,     // Client::send_bytes of a window
  kRequest,  // one request, from its window's send to its reply
  kCount,
};
const char* span_name(SpanName n) noexcept;
SpanName span_of(Call c) noexcept;

struct Span {
  std::uint64_t id, parent, start, end;
  std::uint32_t thread;
  SpanName name;
};

// Spans recorded at the harness's own call sites by one thread: per-name
// totals over every span, plus the most recent kKeep spans, written out
// as a Chrome trace when the run ends.
class SpanLog {
 public:
  static constexpr std::size_t kKeep = 1u << 14;

  explicit SpanLog(std::uint32_t thread) : thread_(thread) {
    ring_.reserve(kKeep);
  }
  std::uint64_t add(SpanName n, std::uint64_t start, std::uint64_t end,
                    std::uint64_t parent = 0);

  std::uint64_t count(SpanName n) const { return count_[idx(n)]; }
  std::uint64_t total_ns(SpanName n) const { return total_[idx(n)]; }
  const std::vector<Span>& kept() const { return ring_; }

 private:
  static std::size_t idx(SpanName n) { return static_cast<std::size_t>(n); }

  std::uint32_t thread_;
  std::uint64_t next_id_ = 1;
  std::size_t head_ = 0;
  std::vector<Span> ring_;
  std::uint64_t count_[static_cast<std::size_t>(SpanName::kCount)] = {};
  std::uint64_t total_[static_cast<std::size_t>(SpanName::kCount)] = {};
};

// --- Layer counters ----------------------------------------------------------

// Public counters of every layer below the harness, read before and after
// the traced phase.
struct LayerCounters {
  pnbbst::OpStatsSnapshot core;  // summed over shards
  std::uint64_t phases = 0;      // sum of each shard's phase()
  std::uint64_t retired = 0, freed = 0;
  pnbbst::mem::AllocStats mem;  // summed over the pooled shard domains

  static LayerCounters read(ServerMap& m);
};

// --- Report ------------------------------------------------------------------

// The run's result: metrics, details and correctness checks, printed as one
// JSON object.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  bool has_metric(const std::string& name) const;
  void detail(const std::string& key, const std::string& json);
  void check(bool ok, const std::string& what);
  void add_calls(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const noexcept { return failures_.empty(); }
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;
  std::vector<std::string> checks_, failures_;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

std::string json_str(const std::string& s);
std::string json_num(double v);

// Value at quantile q, interpolated inside the histogram's bucket.
double quantile_ns(const Histogram& h, double q);

// Times `build` (a fresh map prefilled to half its key range) repeatedly
// in a timed run, at least 3 times and for at least a second, once in a
// traced run, calling `teardown` untimed between builds; reports the
// median as setup_s. The last build is kept.
void time_setup(const Options& o, Report& rep,
                const std::function<void()>& teardown,
                const std::function<void()>& build);

// End-to-end metrics and sample counts of a timed phase.
void report_phase(const Tally& t, Report& rep);
// Tracing overhead: traced against untraced throughput of the same run.
void report_overhead(const PhaseResult& untraced, const PhaseResult& traced,
                     Report& rep);
// Per-layer counter ratios over the traced phase.
void report_layers(const LayerCounters& before, const LayerCounters& after,
                   const Tally& t, ServerMap& m, Report& rep);
// Final census and idle validation of every shard.
void check_map(ServerMap& m, std::size_t actual, std::size_t prefilled,
               const Tally& t, const Options& o, Report& rep);
double peak_rss_mb();
void write_trace(const std::string& path,
                 const std::vector<std::unique_ptr<SpanLog>>& logs,
                 Report& rep);

// --- Workload runners ---------------------------------------------------------

void run_inproc(const Workload& w, const Options& o, Report& rep);
void run_served(const Workload& w, const Options& o, Report& rep);
// Single-thread rung ladder (trace runs): tree, map, sharded map, server.
void run_ladder(const Workload& w, const Options& o, Report& rep);

// The served configuration: kServerLoops event loops, scan_threads = 1,
// on CPU slots 1..kServerLoops. Connections go to the loops round-robin
// in accept order. Check running(): start() reports a failure on stderr.
inline constexpr unsigned kServerLoops = 2;
std::unique_ptr<pnbbst::net::Server> start_server(ServerMap& map);

// Sends `reqs` as one pipelined window on `c` and checks every reply.
// Each request is timed from the window's send. Returns false once the
// connection failed (the unanswered requests count as failed).
struct WindowTimes {
  std::uint64_t send_ns = 0;  // inside Client::send_bytes
  std::uint64_t wait_ns = 0;  // after the send, until the last reply
};
bool send_window(pnbbst::net::Client& c, const std::vector<Req>& reqs,
                 const Phase& p, Tally& t, WindowTimes& wt, SpanLog* spans);

// Calibration block (recorded, never compared): machine, pointer chase,
// build.
std::string calibration_json();

}  // namespace perfbench

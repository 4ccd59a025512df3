// Workload table, call streams, tallies, checks, spans and map set-up.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <thread>

#include "perfbench.h"
#include "util/random.h"

namespace pnbbst {

// core/validate.h orders tree keys with std::less<key_type>; the serving
// map's trees hold MapEntry, which MapEntryLess orders by key alone. This
// gives std::less that same order so the checker can run on map shards.
bool operator<(const MapEntry<std::int64_t, std::int64_t>& a,
               const MapEntry<std::int64_t, std::int64_t>& b) {
  return a.key < b.key;
}

}  // namespace pnbbst

#include "core/validate.h"

namespace perfbench {

// Why each workload exists is recorded in perfbench/README.md. A 1% scan
// share in point_large gives about 7000 scans a second, enough for
// steady scan quantiles, while the phase advances they cause stay rare
// next to the point traffic. Only scan_mixed issues pages: a page advances the phase
// of every shard from lo to the end, and the gated workloads have no
// page metric (see README).
const Workload* find_workload(const std::string& name) {
  static const std::vector<Workload> kWorkloads = {
      {"point_large", Key{1} << 20, false, false,
       {{0.20, 0.20, 0.59, 0.01, kScanWidth},
        {0.20, 0.20, 0.59, 0.01, kScanWidth},
        {0.20, 0.20, 0.59, 0.01, kScanWidth}}},
      {"scan_mixed", Key{1} << 20, false, true,
       {WorkloadMix::updates_only(), WorkloadMix::updates_only(),
        {0.0, 0.0, 0.0, 1.0, kScanWidth}}},
      {"served_small", Key{1} << 16, true, false,
       {{0.04, 0.04, 0.90, 0.02, kScanWidth},
        {0.04, 0.04, 0.90, 0.02, kScanWidth}}},
  };
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool is_update(Call c) noexcept {
  return c == Call::kInsert || c == Call::kErase;
}
bool is_query(Call c) noexcept { return c == Call::kScan || c == Call::kPage; }

// --- CallStream ---------------------------------------------------------------

CallStream::CallStream(const WorkloadMix& mix, Key key_range,
                       std::uint64_t seed, unsigned stream_id, bool pages)
    : stream_(mix, key_range, seed, stream_id),
      key_range_(key_range),
      pages_(pages) {}

Req CallStream::next() {
  const pnbbst::Op op = stream_.next();
  Req r{Call::kGet, op.key};
  switch (op.kind) {
    case pnbbst::OpKind::kInsert:
      r.call = Call::kInsert;
      break;
    case pnbbst::OpKind::kErase:
      r.call = Call::kErase;
      break;
    case pnbbst::OpKind::kFind:
      break;
    case pnbbst::OpKind::kRangeScan:
      r.call = page_next_ ? Call::kPage : Call::kScan;
      r.hi = page_next_ ? key_range_ - 1 : op.key2;
      page_next_ = pages_ && !page_next_;
      break;
  }
  if (hashed_ < kPrefixOps) {
    ++hashed_;
    for (std::uint64_t v :
         {static_cast<std::uint64_t>(r.call), static_cast<std::uint64_t>(r.lo),
          static_cast<std::uint64_t>(r.hi)}) {
      hash_ = (hash_ ^ v) * 0x100000001b3ull;  // FNV-1a over 64-bit words
    }
  }
  return r;
}

// --- Phase and Tally ----------------------------------------------------------

Phase Phase::starting_now(double seconds) {
  Phase p;
  const auto ns = static_cast<std::uint64_t>(seconds * 1e9);
  p.slices = std::max<std::size_t>(1, ns / kSliceNs);
  p.latency_slices = std::max<std::size_t>(1, ns / kLatencySliceNs);
  p.t0 = now_ns();
  p.t_end = p.t0 + ns;
  return p;
}

std::size_t Phase::slice_of(std::uint64_t t) const noexcept {
  const std::size_t s = (t - t0) / kSliceNs;
  return s < slices ? s : slices;
}

std::size_t Phase::latency_slice_of(std::uint64_t t) const noexcept {
  const std::size_t s = (t - t0) / kLatencySliceNs;
  return s < latency_slices ? s : latency_slices;
}

void Tally::done(const Phase& p, Call c, std::uint64_t end, std::uint64_t ns) {
  std::vector<Histogram>& lat =
      c == Call::kScan ? scan : c == Call::kPage ? page : point;
  const std::size_t ls = p.latency_slice_of(end);
  if (ls < lat.size()) lat[ls].record(ns);
  updates += is_update(c);
  queries += is_query(c);
  const std::size_t s = p.slice_of(end);
  if (s < slice_ops.size()) {
    ++slice_ops[s];
    slice_updates[s] += is_update(c);
  }
}

void Tally::fail_check(std::string what) {
  if (errors.size() < 8) errors.push_back(std::move(what));
  ++check_failures;
}

void Tally::merge(const Tally& o) {
  for (std::size_t i = 0; i < point.size() && i < o.point.size(); ++i) {
    point[i].merge(o.point[i]);
    scan[i].merge(o.scan[i]);
    page[i].merge(o.page[i]);
  }
  for (std::size_t i = 0; i < slice_ops.size() && i < o.slice_ops.size();
       ++i) {
    slice_ops[i] += o.slice_ops[i];
    slice_updates[i] += o.slice_updates[i];
  }
  ops += o.ops;
  failed += o.failed;
  updates += o.updates;
  queries += o.queries;
  inserted += o.inserted;
  erased += o.erased;
  check_failures += o.check_failures;
  for (const std::string& e : o.errors) {
    if (errors.size() < 8) errors.push_back(e);
  }
  // Order-sensitive combine, so each stream's hash counts in its place.
  prefix_hash = prefix_hash * 0x9E3779B97F4A7C15ull ^ o.prefix_hash;
}

namespace {

// The CPUs this process may use, read once, before any thread is pinned
// (main pins itself to slot 0 first thing).
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> out;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

void pin_to_slot(std::size_t slot, std::size_t count) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t s = slot; s < slot + count; ++s) {
    CPU_SET(cpus[s % cpus.size()], &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

KeepAwake::KeepAwake() {
  for (std::size_t i = 0; i < allowed_cpus().size(); ++i) {
    spinners_.emplace_back([this, i] {
      pin_to_slot(i);
      const sched_param idle{0};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

KeepAwake::~KeepAwake() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : spinners_) t.join();
}

Crew::Crew(std::size_t n, std::size_t first_slot) {
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i, first_slot] {
      pin_to_slot(first_slot + i);
      loop(i);
    });
  }
}

Crew::~Crew() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Crew::run(const std::function<void(std::size_t)>& fn) {
  std::unique_lock<std::mutex> lock(mu_);
  job_ = &fn;
  running_ = threads_.size();
  ++generation_;
  wake_.notify_all();
  done_.wait(lock, [this] { return running_ == 0; });
  job_ = nullptr;
}

void Crew::loop(std::size_t i) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    (*job)(i);
    std::lock_guard<std::mutex> lock(mu_);
    if (--running_ == 0) done_.notify_all();
  }
}

PhaseResult run_phase(
    Crew& crew, double seconds,
    const std::function<void(std::size_t, const Phase&, Tally&)>& body) {
  std::vector<std::unique_ptr<Tally>> tallies(crew.size());
  const Phase phase = Phase::starting_now(seconds);
  crew.run([&](std::size_t i) {
    tallies[i] = std::make_unique<Tally>(phase);
    body(i, phase, *tallies[i]);
  });
  PhaseResult r{phase, Tally(phase)};
  for (const auto& t : tallies) r.tally.merge(*t);
  return r;
}

std::vector<Key> prefill_keys(Key key_range, std::uint64_t seed) {
  pnbbst::Xoshiro256 rng(pnbbst::mix64(seed ^ 0xC0FFEE));
  std::vector<bool> seen(static_cast<std::size_t>(key_range));
  std::vector<Key> keys;
  const auto target = static_cast<std::size_t>(key_range / 2);
  keys.reserve(target);
  while (keys.size() < target) {
    const auto k = static_cast<Key>(
        rng.next_bounded(static_cast<std::uint64_t>(key_range)));
    if (!seen[static_cast<std::size_t>(k)]) {
      seen[static_cast<std::size_t>(k)] = true;
      keys.push_back(k);
    }
  }
  return keys;
}

// --- Checks -------------------------------------------------------------------

void check_get(const Req& r, const std::optional<Key>& v, Tally& t) {
  if (v && *v != r.lo) {
    t.fail_check("get(" + std::to_string(r.lo) + ") returned " +
                 std::to_string(*v));
  }
}

void check_query(const Req& r, const std::vector<std::pair<Key, Key>>& pairs,
                 Tally& t) {
  const char* what = r.call == Call::kPage ? "page" : "scan";
  const std::string where = std::string(what) + "[" + std::to_string(r.lo) +
                            ", " + std::to_string(r.hi) + "]";
  // The key range holds about half its keys, so a page from any lo the
  // streams draw (lo <= key_range - 256) always has 16 keys to return.
  if (r.call == Call::kPage && pairs.size() != kPageSize) {
    t.fail_check(where + " returned " + std::to_string(pairs.size()) +
                 " pairs");
    return;
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& [k, v] = pairs[i];
    if (k < r.lo || k > r.hi || v != k || (i > 0 && pairs[i - 1].first >= k)) {
      t.fail_check(where + " returned out-of-order, out-of-range or wrong " +
                   "pair (" + std::to_string(k) + ", " + std::to_string(v) +
                   ")");
      return;
    }
  }
}

// --- Spans --------------------------------------------------------------------

const char* span_name(SpanName n) noexcept {
  switch (n) {
    case SpanName::kGet:
      return "shard.get";
    case SpanName::kInsert:
      return "shard.insert";
    case SpanName::kErase:
      return "shard.erase";
    case SpanName::kScan:
      return "shard.range_scan";
    case SpanName::kPage:
      return "shard.range_first";
    case SpanName::kWindow:
      return "client.window";
    case SpanName::kSend:
      return "client.send";
    case SpanName::kRequest:
      return "server.request";
    case SpanName::kCount:
      break;
  }
  return "?";
}

SpanName span_of(Call c) noexcept {
  switch (c) {
    case Call::kGet:
      return SpanName::kGet;
    case Call::kInsert:
      return SpanName::kInsert;
    case Call::kErase:
      return SpanName::kErase;
    case Call::kScan:
      return SpanName::kScan;
    case Call::kPage:
      return SpanName::kPage;
  }
  return SpanName::kCount;
}

std::uint64_t SpanLog::add(SpanName n, std::uint64_t start, std::uint64_t end,
                           std::uint64_t parent) {
  const std::uint64_t id = (std::uint64_t{thread_} << 40) | next_id_++;
  const Span s{id, parent, start, end, thread_, n};
  if (ring_.size() < kKeep) {
    ring_.push_back(s);
  } else {
    ring_[head_] = s;
    head_ = (head_ + 1) % kKeep;
  }
  ++count_[idx(n)];
  total_[idx(n)] += end - start;
  return id;
}

// --- Layer counters -----------------------------------------------------------

LayerCounters LayerCounters::read(ServerMap& m) {
  LayerCounters c;
  for (std::size_t i = 0; i < ServerMap::shard_count(); ++i) {
    const pnbbst::OpStatsSnapshot s = m.shard_stats(i);
    c.core.attempts += s.attempts;
    c.core.commits += s.commits;
    c.core.handshake_aborts += s.handshake_aborts;
    c.core.helps += s.helps;
    c.core.scans += s.scans;
    c.core.scan_helps += s.scan_helps;
    c.phases += m.shard_ref(i).underlying().phase();
    const pnbbst::mem::AllocStats a =
        pnbbst::mem::ArenaDomain::pooled(i).stats();
    c.mem.slot_allocs += a.slot_allocs;
    c.mem.slot_frees += a.slot_frees;
    c.mem.freelist_hits += a.freelist_hits;
    c.mem.slab_bytes += a.slab_bytes;
  }
  const pnbbst::EpochReclaimer& r = pnbbst::EpochReclaimer::shared();
  c.retired = r.retired_count();
  c.freed = r.freed_count();
  return c;
}

// --- Set-up and final checks --------------------------------------------------

void time_setup(const Options& o, Report& rep,
                const std::function<void()>& teardown,
                const std::function<void()>& build) {
  const std::size_t min_builds = o.trace ? 1 : 3;
  const std::size_t max_builds = o.trace ? 1 : 15;
  std::vector<double> secs;
  double total = 0.0;
  while (secs.size() < min_builds ||
         (total < 1.0 && secs.size() < max_builds)) {
    if (!secs.empty()) teardown();
    const std::uint64_t t0 = now_ns();
    build();
    secs.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    total += secs.back();
  }
  std::vector<double> sorted = secs;
  std::sort(sorted.begin(), sorted.end());
  rep.metric("setup_s", sorted[sorted.size() / 2], "s");
  std::string list = "[";
  for (double s : secs) list += (list.size() > 1 ? ", " : "") + json_num(s);
  rep.detail("setup_runs_s", list + "]");
}

void check_map(ServerMap& m, std::size_t actual, std::size_t prefilled,
               const Tally& t, const Options& o, Report& rep) {
  std::string errs;
  for (const std::string& e : t.errors) errs += "; " + e;
  rep.check(t.check_failures == 0,
            "answers: " + std::to_string(t.check_failures) +
                " wrong gets, scans or pages" + errs);
  const auto expected = static_cast<std::int64_t>(prefilled) +
                        static_cast<std::int64_t>(t.inserted) -
                        static_cast<std::int64_t>(t.erased) + o.census_bias;
  rep.check(static_cast<std::int64_t>(actual) == expected,
            "census: " + std::to_string(actual) + " keys, expected " +
                std::to_string(expected) + " (prefill " +
                std::to_string(prefilled) + " + inserted " +
                std::to_string(t.inserted) + " - erased " +
                std::to_string(t.erased) + ")");
  for (std::size_t i = 0; i < ServerMap::shard_count(); ++i) {
    const pnbbst::ValidationReport v =
        pnbbst::check_current(m.shard_ref(i).underlying());
    rep.check(v.ok, "shard " + std::to_string(i) + " validates idle" +
                        (v.ok ? "" : ": " + v.error));
  }
}

}  // namespace perfbench

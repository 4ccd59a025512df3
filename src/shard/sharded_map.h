// ShardedPnbMap — a sharded front-end over per-shard PnbMaps.
//
// The Ellen-et-al.-style helping protocol underlying PNB-BST is
// disjoint-access parallel, so partitioning the key space across NumShards
// independent trees composes cleanly: point operations route to one shard
// and keep that shard's full guarantees (non-blocking updates, linearizable
// lookups); range queries take one wait-free snapshot per shard in the
// query's span and k-way-merge the per-shard results.
//
// Splitter policies (the routing function) own the key→shard mapping:
//
//   RangeSplitter<K>  contiguous key-range partition over a configured
//                     [lo, hi) keyspace (integral K). Scans touch only the
//                     shards overlapping the query range, so narrow scans
//                     cost one snapshot instead of NumShards.
//   HashSplitter<K>   mixed std::hash partition — balances any key
//                     distribution, but every scan spans all shards.
//
// Routing table (live resharding support)
// ---------------------------------------
// The splitter and the shard pointers live together in one immutable
// `Table` published through a single atomic pointer. Every operation loads
// the table exactly once, so it always sees a *mutually consistent*
// (splitter, shards) pair — there is no window where a key routes with the
// new splitter into an old shard or vice versa. reshard()/rebuild_shard()
// build replacement maps offline (snapshot-scan → bulk_build) and cut over
// by swapping that one pointer.
//
// Snapshot-lease lifecycle (src/lifecycle/lifetime_manager.h)
// -----------------------------------------------------------
// Replaced tables and maps are NOT freed manually. At every cutover they
// are attached to the closing generation of a per-container
// LifetimeManager; every composite Snapshot holds a SnapshotLease on that
// manager, and in-flight point operations hold an epoch pin across their
// table load. When the last lease covering a retired generation drops,
// its resources are handed to the epoch reclaimer automatically (the
// retired_maps()/retired_bytes() gauges fall at that point) and freed
// after the grace period that covers any still-pinned operation. The
// happy path therefore never calls purge_retired(); it remains only as a
// test-only force-purge under full quiescence.
//
// Loss-free reshard contract (reshard / rebuild_shard)
// ----------------------------------------------------
//   * READS stay safe and table-consistent throughout: an operation runs
//     entirely against the table it loaded — either the pre-reshard or the
//     post-reshard world, never a mix — so a concurrent reader observes no
//     duplicated and no mis-routed keys. Memory stays valid via the lease
//     lifecycle above.
//   * WRITES racing a migration are NOT lost. A migration publishes an
//     intermediate table generation carrying a write-intent ledger; every
//     write accepted on a migrating shard during the migration window is
//     recorded (under a short per-shard ledger lock) before it is applied
//     to the pre-reshard world, and the recorded ops are replayed IN ORDER
//     into the replacement maps before the atomic cutover. Writers that
//     arrive after the ledger closes re-route themselves to the new table.
//     Residual weakening, documented: during the window, writes on
//     migrating shards take that short ledger lock (the non-blocking
//     guarantee is relaxed for the window's duration, never outside it),
//     and two *racing* writes to the SAME key may resolve in recorded
//     order rather than the pre-reshard world's internal order — any
//     per-key single-writer discipline observes exact loss-freedom
//     (asserted by tests/test_reshard_concurrent.cpp).
//   * reshard() changes the routing function; the shard *count* is a
//     template parameter and fixed for the instance's lifetime.
//   * Snapshots taken before a cutover stay valid and keep answering from
//     the pre-reshard world (their lease pins the retired generation).
//   * reshard() and rebuild_shard() serialize against each other on an
//     internal mutex; they never block readers.
//
// Ingest admission control (src/ingest/admission.h)
// -------------------------------------------------
// apply_batch consults the container's AdmissionConfig: when
// retired_bytes() exceeds the configured watermark (snapshot leases are
// holding too many retired generations alive), the batch blocks until
// reclamation catches up or returns with BatchResult::deferred set.
// Point operations are never throttled.
//
// Cross-shard consistency contract
// --------------------------------
// Each shard is an independent PNB-BST with its own phase counter, so there
// is no global linearization point for a multi-shard operation:
//
//   * Point ops (insert/erase/contains/get/get_or) touch exactly one shard
//     and are linearizable exactly as PnbMap's are.
//   * A merged scan (range_scan / range_count / size / snapshot) takes its
//     per-shard snapshots in ascending shard order. Every snapshot is
//     wait-free and linearizable *within its shard*, and is taken between
//     the merged operation's invocation and response. Since every key is
//     owned by exactly one shard, each key's reported presence/value is its
//     true state at that shard's linearization point — i.e. the merged
//     result is a union of per-shard linearizable views ("per-key atomic",
//     a regular-register-style guarantee). What is NOT guaranteed is a
//     single point in time at which the whole merged result was the state
//     of the map: an update sequence spanning two shards during the scan
//     can be observed half-applied. Scans whose splitter span is a single
//     shard (always true for point-like ranges under RangeSplitter) ARE
//     fully linearizable.
//   * assign keeps PnbMap's documented non-atomicity on top of this.
//
// The per-shard wait-freedom bound is preserved: a merged scan performs
// NumShards wait-free scans plus a bounded merge, so it cannot be starved
// by concurrent updates.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/concepts.h"
#include "core/pnb_map.h"
#include "ingest/admission.h"
#include "ingest/batch_apply.h"
#include "lifecycle/lifetime_manager.h"
#include "obs/trace.h"
#include "scan/parallel_scan.h"
#include "shard/key_sampler.h"
#include "util/backoff.h"
#include "util/random.h"

namespace pnbbst {

// Contiguous range partition of an integral keyspace [lo, hi). Keys outside
// the configured bounds clamp to the edge shards, so the splitter is total.
//
// Two modes share the type (reshard() requires the old and new splitter to
// be the same type, so adaptive boundaries cannot live in a second class):
//  - equal-width (cuts empty): shard i owns [lo + i*width, lo + (i+1)*width)
//  - explicit boundaries (cuts = sorted interior cut points, size < nshards):
//    shard i owns [cuts[i-1], cuts[i]), with lo/hi still clamping the edges.
//    Fewer than nshards-1 cuts leaves the top shards empty — legal, the
//    splitter stays total.
// Ownership stays contiguous in both modes, so kRangePartitioned narrowing
// (shard_span) remains exact.
template <class K>
struct RangeSplitter {
  static_assert(std::is_integral_v<K>,
                "RangeSplitter needs an integral key; use HashSplitter");
  static constexpr bool kRangePartitioned = true;

  K lo{};
  K hi{};  // exclusive
  std::vector<K> cuts{};  // sorted interior boundaries; empty = equal-width

  // Explicit-boundary factory: dedups/sorts/clamps `boundaries` into (lo,hi)
  // and keeps at most nshards-1 of them. The rebalancer feeds quantiles of
  // its sampled-key ring through here (src/shard/rebalance.h).
  static RangeSplitter with_boundaries(K lo, K hi, std::vector<K> boundaries,
                                       std::size_t nshards) {
    std::sort(boundaries.begin(), boundaries.end());
    boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                     boundaries.end());
    std::erase_if(boundaries, [&](const K& c) { return c <= lo || c >= hi; });
    if (nshards > 0 && boundaries.size() > nshards - 1) {
      boundaries.resize(nshards - 1);
    }
    return RangeSplitter{lo, hi, std::move(boundaries)};
  }

  std::size_t shard_of(const K& k, std::size_t nshards) const {
    if (k < lo) return 0;
    if (k >= hi) return nshards - 1;
    if (!cuts.empty()) {
      // Index = number of cuts <= k; cuts partition [lo, hi) into
      // cuts.size()+1 <= nshards contiguous runs.
      const auto it = std::upper_bound(cuts.begin(), cuts.end(), k);
      return static_cast<std::size_t>(it - cuts.begin());
    }
    const auto span = static_cast<std::uint64_t>(hi) -
                      static_cast<std::uint64_t>(lo);
    // ceil(span / nshards) — written without `span + nshards - 1`, which
    // wraps for spans near the full 64-bit keyspace (width 0 would then
    // divide by zero / index out of bounds).
    const auto width = span / nshards + (span % nshards != 0 ? 1 : 0);
    const auto off = static_cast<std::uint64_t>(k) -
                     static_cast<std::uint64_t>(lo);
    return static_cast<std::size_t>(off / width);
  }

  // Half-open shard interval that can contain keys of [a, b].
  std::pair<std::size_t, std::size_t> shard_span(const K& a, const K& b,
                                                 std::size_t nshards) const {
    if (b < a) return {0, 0};
    return {shard_of(a, nshards), shard_of(b, nshards) + 1};
  }
};

// Hash partition: balances arbitrary key distributions (no bounds needed),
// at the cost of every range query spanning all shards.
template <class K, class Hash = std::hash<K>>
struct HashSplitter {
  static constexpr bool kRangePartitioned = false;

  [[no_unique_address]] Hash hash{};

  std::size_t shard_of(const K& k, std::size_t nshards) const {
    // std::hash is the identity for integers; mix so that dense key ranges
    // do not alias into a stride pattern across shards.
    return static_cast<std::size_t>(
        mix64(static_cast<std::uint64_t>(hash(k))) % nshards);
  }

  std::pair<std::size_t, std::size_t> shard_span(const K&, const K&,
                                                 std::size_t nshards) const {
    return {0, nshards};
  }
};

// REQUIREMENT: the Splitter must agree with Compare's equivalence classes —
// keys that Compare treats as equal must route to the same shard, or one
// logical key can be stored in two shards (insert-if-absent would accept
// both, point ops would consult only the routed one). The provided splitters
// satisfy this for the default std::less<K>; a custom Compare that coarsens
// equality (e.g. case-insensitive strings) needs a splitter keyed on the
// same canonical form.
template <class K, class V, std::size_t NumShards = 8,
          class Splitter = HashSplitter<K>, class Compare = std::less<K>,
          class R = EpochReclaimer, class Stats = NullOpStats,
          class Alloc = mem::HeapAlloc>
class ShardedPnbMap {
  static_assert(NumShards >= 1, "at least one shard");

  struct Table;           // routing generation; defined with private members
  struct MigrationState;  // write-intent ledgers of an in-flight migration

 public:
  using key_type = K;
  using mapped_type = V;
  using splitter_type = Splitter;
  using Map = PnbMap<K, V, Compare, R, Stats, Alloc>;
  // Batch ingest shapes (src/ingest/, BatchIngestible in core/concepts.h).
  using bulk_item = std::pair<K, V>;
  using batch_op = ingest::BatchOp<K, V>;
  static constexpr std::size_t kNumShards = NumShards;

 private:
  // One shard: the per-shard map plus its in-flight writer gauge. The
  // gauge lives on the SHARD, not the routing table, deliberately: a
  // long-running batch entered through table generation g keeps writing
  // to its map while later generations g+1, g+2, ... are published (the
  // map pointer is shared forward by rebuilds), so a migration must wait
  // on the data it is about to snapshot — the map — not on whichever
  // table the writer happened to enter through.
  // Each shard gets Alloc::for_shard(i): with mem::ArenaAlloc that is the
  // immortal pooled(i) arena domain, so shard i's nodes pack into their
  // own slab set (per-shard arena domains) and the domain's lifetime is
  // decoupled from the epoch-retired Shard object. HeapAlloc shards all
  // share the heap, as before.
  struct Shard {
    Shard(R& r, Alloc a) : map(r, a) {}
    Map map;
    std::atomic<std::uint32_t> writers{0};
  };

 public:
  explicit ShardedPnbMap(Splitter splitter = Splitter{},
                         R& reclaimer = R::shared())
      : reclaimer_(&reclaimer), lifetime_(reclaimer) {
    auto* table = new Table;
    table->splitter = std::move(splitter);
    for (std::size_t i = 0; i < NumShards; ++i) {
      table->shards[i] = new Shard(reclaimer, Alloc::for_shard(i));
    }
    table_.store(table, std::memory_order_release);
  }

  ShardedPnbMap(const ShardedPnbMap&) = delete;
  ShardedPnbMap& operator=(const ShardedPnbMap&) = delete;

  // Destruction assumes quiescence: no concurrent operations and no live
  // Snapshot handles. The current generation is freed here; retired
  // generations still held by the LifetimeManager are freed by its
  // destructor (resources already handed to the reclaimer are on the
  // reclaimer's schedule, as everywhere else).
  ~ShardedPnbMap() {
    const Table* table = table_.load(std::memory_order_acquire);
    for (Shard* sh : table->shards) delete sh;
    delete table;
  }

  // --- Point operations (single shard, fully linearizable) -----------------

  bool insert(K k, V v) {
    return routed_write(
        k,
        [&](std::vector<batch_op>& ledger) {
          ledger.push_back(batch_op::insert(k, v));
        },
        [&](Map& m) { return m.insert(std::move(k), std::move(v)); });
  }

  bool erase(const K& k) {
    return routed_write(
        k,
        [&](std::vector<batch_op>& ledger) {
          ledger.push_back(batch_op::erase(k));
        },
        [&](Map& m) { return m.erase(k); });
  }

  bool contains(const K& k) {
    auto guard = reclaimer_->pin();
    return shard(k).contains(k);
  }
  std::optional<V> get(const K& k) {
    auto guard = reclaimer_->pin();
    return shard(k).get(k);
  }
  V get_or(const K& k, V fallback) {
    auto guard = reclaimer_->pin();
    return shard(k).get_or(k, std::move(fallback));
  }

  // Erase+insert on the owning shard; inherits PnbMap::assign's documented
  // non-atomicity (a reader may observe the key briefly absent). During a
  // migration the intent is recorded as its erase+insert pair, replayed in
  // order, so the assignment survives the cutover.
  bool assign(const K& k, const V& v) {
    return routed_write(
        k,
        [&](std::vector<batch_op>& ledger) {
          ledger.push_back(batch_op::erase(k));
          ledger.push_back(batch_op::insert(k, v));
        },
        [&](Map& m) { return m.assign(k, v); });
  }

  // --- Merged range queries (see consistency contract above) ---------------

  // (key, value) pairs with keys in [lo, hi], ascending, k-way-merged from
  // one wait-free snapshot per shard in the splitter's span.
  std::vector<std::pair<K, V>> range_scan(const K& lo, const K& hi) {
    return snapshot_span(lo, hi).range_scan(lo, hi);
  }

  std::size_t range_count(const K& lo, const K& hi) {
    return snapshot_span(lo, hi).range_count(lo, hi);
  }

  // First (at most) n merged pairs of [lo, hi] in ascending key order.
  std::vector<std::pair<K, V>> range_first(const K& lo, const K& hi,
                                           std::size_t n) {
    return snapshot_span(lo, hi).range_first(lo, hi, n);
  }

  // Streaming merged visit in bounded pages (see Snapshot::visit_while):
  // the first pair is delivered after one page, not after materializing the
  // whole range.
  template <class Visitor>
  void visit_range(const K& lo, const K& hi, Visitor&& vis) {
    snapshot_span(lo, hi).visit_while(lo, hi, [&vis](const K& k, const V& v) {
      vis(k, v);
      return true;
    });
  }

  // Early-terminating merged visit: vis returns false to stop. The visited
  // pairs are an ascending prefix of the merged range; stopping after p
  // pairs does O(p)-ish work instead of materializing the whole range.
  template <class Visitor>
  void range_visit_while(const K& lo, const K& hi, Visitor&& vis) {
    snapshot_span(lo, hi).visit_while(lo, hi, std::forward<Visitor>(vis));
  }

  // --- Parallel merged queries (src/scan/ engine) ---------------------------
  //
  // Same consistency contract as the sequential merged queries: the
  // per-shard snapshots are still taken sequentially in ascending shard
  // order (the contract's linearization structure is fixed at that point);
  // only the per-shard snapshot SCANS then run concurrently on the
  // executor, feeding the same k-way merge.
  std::vector<std::pair<K, V>> parallel_range_scan(
      const K& lo, const K& hi, const scan::ParallelScanOptions& opts = {}) {
    return snapshot_span(lo, hi).parallel_range_scan(lo, hi, opts);
  }

  std::size_t parallel_range_count(
      const K& lo, const K& hi, const scan::ParallelScanOptions& opts = {}) {
    return snapshot_span(lo, hi).parallel_range_count(lo, hi, opts);
  }

  std::size_t size() { return snapshot().size(); }
  bool empty() { return size() == 0; }

  // --- Batch ingest (src/ingest/ engine) ------------------------------------

  // Parallel bulk construction: routes the items per shard with the current
  // splitter, then bulk-builds every shard's balanced tree as one executor
  // task. The full options cascade into each shard's build (nested
  // run_tasks batches are caller-participating and cannot deadlock), so a
  // batch skewed onto few shards still fans out within them while the
  // executor width bounds total parallelism. Duplicate keys keep the LAST
  // pair. Same single-writer precondition as PnbMap::bulk_load, for the
  // whole instance: fresh, empty, still-private (hence no migration or
  // admission machinery on this path).
  std::size_t bulk_load(std::vector<bulk_item> items,
                        const ingest::IngestOptions& opts = {}) {
    const Table* table = table_.load(std::memory_order_acquire);
    std::array<std::vector<bulk_item>, NumShards> routed;
    for (bulk_item& it : items) {
      routed[table->splitter.shard_of(it.first, NumShards)].push_back(
          std::move(it));
    }
    std::array<std::size_t, NumShards> counts{};
    scan::run_tasks(opts.scan_options(), NumShards, [&](std::size_t i) {
      counts[i] = table->shards[i]->map.bulk_load(std::move(routed[i]), opts);
    });
    std::size_t total = 0;
    for (std::size_t c : counts) total += c;
    return total;
  }

  // Batched updates against the LIVE sharded map: ops are normalized once
  // (keep-last), routed per shard with one consistent table load, then
  // every non-empty shard batch is applied as one executor task through
  // the ordinary lock-free paths (full options cascade, so skewed batches
  // still parallelize within their shards). Per-op linearizability is per
  // shard, exactly as for single ops; the batch as a whole is not atomic.
  //
  // Interactions with this PR's lifecycle machinery:
  //   * ADMISSION — if retired-generation memory exceeds the configured
  //     watermark (set_admission), the batch blocks until reclamation
  //     catches up or returns untouched with `deferred = ops.size()`.
  //   * MIGRATION — shard batches racing a reshard are recorded in the
  //     write-intent ledger exactly like single ops, so they are NOT lost;
  //     a shard batch that loses its table to a cutover re-routes itself
  //     under the new splitter and retries.
  ingest::BatchResult apply_batch(std::vector<batch_op> ops,
                                  const ingest::IngestOptions& opts = {}) {
    ingest::BatchResult total;
    if (ops.empty()) return total;
    const ingest::AdmissionOutcome adm = ingest::admit_batch_outcome(
        admission(),
        [this] { return lifetime_.retired_bytes(); },
        [this](std::size_t limit, std::chrono::milliseconds timeout) {
          return lifetime_.wait_retired_bytes_below(limit, timeout);
        });
    record_admission(adm);
    if (!ingest::admitted(adm)) {
      total.deferred = ops.size();
      return total;
    }
    // Normalize up front so the ledger records exactly the ops that get
    // applied (one op per key, last wins); the per-shard re-normalization
    // inside Map::apply_batch is then a cheap no-op re-sort.
    ingest::normalize_batch(ops, [cmp = Compare{}](const K& a, const K& b) {
      return cmp(a, b);
    });
    // The caller's pin spans the whole fan-out (run_tasks participates),
    // so the loaded table outlives every worker's dereference of it.
    auto guard = reclaimer_->pin();
    std::vector<batch_op> pending = std::move(ops);
    // Sample once, before the routing loop: a batch bounced by a cutover
    // retries with the same keys and must not double-count them.
    for (const batch_op& op : pending) sample_key(op.key);
    while (!pending.empty()) {
      const Table* t = table_.load(std::memory_order_seq_cst);
      std::array<std::vector<batch_op>, NumShards> routed;
      for (batch_op& op : pending) {
        routed[t->splitter.shard_of(op.key, NumShards)].push_back(
            std::move(op));
      }
      pending.clear();
      std::array<ingest::BatchResult, NumShards> parts{};
      std::array<std::vector<batch_op>, NumShards> retry;
      scan::run_tasks(opts.scan_options(), NumShards, [&](std::size_t s) {
        if (routed[s].empty()) return;
        const WriteAdmit a =
            admit_write(t, s, [&](std::vector<batch_op>& ledger) {
              ledger.insert(ledger.end(), routed[s].begin(),
                            routed[s].end());
            });
        if (a == WriteAdmit::kRetry) {
          retry[s] = std::move(routed[s]);
          return;
        }
        parts[s] = t->shards[s]->map.apply_batch(std::move(routed[s]), opts);
        if (a == WriteAdmit::kCounted) exit_writer(t, s);
      });
      for (const ingest::BatchResult& p : parts) total += p;
      // A cutover moved the table mid-batch: re-route the bounced shard
      // batches under the (possibly new) splitter and go again. Bounded
      // in practice by the number of concurrent migrations, which
      // serialize on reshard_mutex_.
      for (std::vector<batch_op>& r : retry) {
        for (batch_op& op : r) pending.push_back(std::move(op));
      }
    }
    return total;
  }

  // --- Resharding (loss-free; see the contract above) -----------------------

  // Rebuilds shard i as a freshly bulk-built, perfectly balanced tree.
  // Readers are undisturbed (atomic table cutover); writes racing the
  // rebuild are recorded in the shard's write-intent ledger and replayed
  // into the fresh tree before the cutover — nothing acknowledged is lost.
  // Returns the number of entries in the rebuild's base snapshot (ledger
  // replay may add more by the time the cutover publishes).
  std::size_t rebuild_shard(std::size_t i,
                            const ingest::IngestOptions& opts = {}) {
    std::lock_guard<std::mutex> lock(reshard_mutex_);
    auto guard = reclaimer_->pin();
    const Table* t_old = table_.load(std::memory_order_acquire);
    auto* mig = new MigrationState(i, i + 1);
    auto* t_m = publish_migration(t_old, mig);
    drain_writers(t_old, i, i + 1);
    std::vector<bulk_item> items;
    {
      auto snap = t_m->shards[i]->map.snapshot();
      items.reserve(snap.size());
      snap.visit_all([&items](const K& k, const V& v) {
        items.emplace_back(k, v);
      });
    }
    const std::size_t n = items.size();
    auto* fresh = new Shard(*reclaimer_, Alloc::for_shard(i));
    fresh->map.bulk_load(std::move(items), opts);
    auto* t_new = new Table(*t_m);
    t_new->shards[i] = fresh;
    finish_migration(t_old, t_m, mig, t_new, {{t_m->shards[i], n}});
    return n;
  }

  // Migrates the whole map to a new routing function: snapshot every shard
  // (sequentially, same structure as a merged scan), partition the union by
  // the new splitter, bulk-build NumShards fresh balanced shard trees in
  // parallel, replay the write-intent ledgers, and cut over atomically.
  // Returns the number of entries in the migration's base snapshots.
  // Readers see pre- or post-reshard state, never a mix; racing writes are
  // recorded and replayed (contract above).
  std::size_t reshard(Splitter new_splitter,
                      const ingest::IngestOptions& opts = {}) {
    std::lock_guard<std::mutex> lock(reshard_mutex_);
    auto guard = reclaimer_->pin();
    const Table* t_old = table_.load(std::memory_order_acquire);
    auto* mig = new MigrationState(0, NumShards);
    auto* t_m = publish_migration(t_old, mig);
    drain_writers(t_old, 0, NumShards);
    // Snapshot every shard (sequentially, ascending — the same structure
    // as a merged scan), then reserve once for the whole union before
    // extracting.
    std::vector<typename Map::Snapshot> snaps;
    snaps.reserve(NumShards);
    std::array<std::size_t, NumShards> old_entries{};
    std::size_t union_size = 0;
    for (std::size_t i = 0; i < NumShards; ++i) {
      snaps.push_back(t_m->shards[i]->map.snapshot());
      old_entries[i] = snaps.back().size();
      union_size += old_entries[i];
    }
    std::vector<bulk_item> items;
    items.reserve(union_size);
    for (auto& snap : snaps) {
      snap.visit_all([&items](const K& k, const V& v) {
        items.emplace_back(k, v);
      });
    }
    snaps.clear();  // release the per-shard pins before the parallel build
    const std::size_t total = items.size();
    auto* t_new = new Table;
    t_new->splitter = std::move(new_splitter);
    std::array<std::vector<bulk_item>, NumShards> routed;
    for (bulk_item& it : items) {
      routed[t_new->splitter.shard_of(it.first, NumShards)].push_back(
          std::move(it));
    }
    scan::run_tasks(opts.scan_options(), NumShards, [&](std::size_t i) {
      auto* fresh = new Shard(*reclaimer_, Alloc::for_shard(i));
      fresh->map.bulk_load(std::move(routed[i]), opts);
      t_new->shards[i] = fresh;
    });
    std::vector<std::pair<Shard*, std::size_t>> replaced;
    replaced.reserve(NumShards);
    for (std::size_t i = 0; i < NumShards; ++i) {
      replaced.emplace_back(t_m->shards[i], old_entries[i]);
    }
    finish_migration(t_old, t_m, mig, t_new, std::move(replaced));
    return total;
  }

  // TEST-ONLY force purge of retired generations. PRECONDITION: full
  // quiescence — no concurrent operations and no live Snapshot handles.
  // The happy path never needs this: retired generations reclaim
  // themselves when their last covering snapshot lease drops. Returns the
  // number of maps freed.
  std::size_t purge_retired() { return lifetime_.force_purge(); }

  // --- Snapshots -----------------------------------------------------------

  // Composite snapshot: one per-shard snapshot, taken in ascending shard
  // order. Queries against it are mutually consistent per shard (and
  // repeatable: the same Snapshot always answers the same), but the shard
  // snapshots belong to different per-shard phases — see the contract above.
  // The handle references the routing table current at creation and holds a
  // SnapshotLease on the owning map's LifetimeManager, so it keeps
  // answering from the pre-reshard world across a reshard and the retired
  // generation it references is reclaimed when the last such lease drops.
  class Snapshot {
   public:
    bool contains(const K& k) const {
      const auto* snap = route(k);
      return snap != nullptr && snap->contains(k);
    }

    std::optional<V> get(const K& k) const {
      const auto* snap = route(k);
      if (snap == nullptr) return std::nullopt;
      return snap->get(k);
    }

    std::size_t size() const {
      std::size_t n = 0;
      for (const auto& s : snaps_) n += s.snap.size();
      return n;
    }

    std::size_t range_count(const K& lo, const K& hi) const {
      std::size_t n = 0;
      for (const auto& s : snaps_) n += s.snap.range_count(lo, hi);
      return n;
    }

    std::vector<std::pair<K, V>> range_scan(const K& lo, const K& hi) const {
      std::vector<std::vector<std::pair<K, V>>> parts;
      parts.reserve(snaps_.size());
      for (const auto& s : snaps_) parts.push_back(s.snap.range_scan(lo, hi));
      return merge_sorted(std::move(parts));
    }

    std::vector<std::pair<K, V>> range_first(const K& lo, const K& hi,
                                             std::size_t n) const {
      // Each shard contributes at most n pairs to the merged first-n.
      std::vector<std::vector<std::pair<K, V>>> parts;
      parts.reserve(snaps_.size());
      for (const auto& s : snaps_) {
        parts.push_back(s.snap.range_first(lo, hi, n));
      }
      auto merged = merge_sorted(std::move(parts));
      if (merged.size() > n) merged.resize(n);
      return merged;
    }

    template <class Visitor>
    void visit_range(const K& lo, const K& hi, Visitor&& vis) const {
      visit_while(lo, hi, [&vis](const K& k, const V& v) {
        vis(k, v);
        return true;
      });
    }

    // Early-terminating merged visit (vis returns false to stop), paged in
    // bounded chunks: each chunk costs every overlapped shard
    // O(chunk + depth), so neither full visits nor early exits materialize
    // the whole range at once.
    template <class Visitor>
    void visit_while(const K& lo, const K& hi, Visitor&& vis) const {
      constexpr std::size_t kPage = 256;
      Compare cmp{};
      K cursor = lo;
      bool skip_cursor = false;  // cursor key emitted by the previous page
      for (;;) {
        const auto page = range_first(cursor, hi, kPage);
        std::size_t i = 0;
        if (skip_cursor && !page.empty() && !cmp(page.front().first, cursor) &&
            !cmp(cursor, page.front().first)) {
          i = 1;
        }
        for (; i < page.size(); ++i) {
          if (!vis(page[i].first, page[i].second)) return;
        }
        if (page.size() < kPage) return;
        // Restart at the last emitted key (kept inclusive because K need
        // not be incrementable) and drop its duplicate from the next page.
        cursor = page.back().first;
        skip_cursor = true;
      }
    }

    // Parallel merged scan: one executor task per shard snapshot (the
    // caller participates), feeding the same k-way merge as range_scan.
    // Each task pins the shared reclaimer for the duration of its scan —
    // the composite snapshot's per-shard guards keep the frozen versions
    // alive, and the task pin covers retirements a helping worker may
    // trigger. Results are identical to the sequential merged scan on this
    // same Snapshot (same frozen phases, same merge).
    //
    // A snapshot whose span is a SINGLE shard (common for point-like or
    // hot-range queries under RangeSplitter, and via snapshot_span for any
    // span the splitter maps to one shard) has nothing to fan out at the
    // shard level, which used to serialize the whole query on one core.
    // For integral keys it instead delegates to the per-map chunked scan
    // (core/pnb_map.h): [lo, hi] is tiled with scan::partition_range and
    // each chunk scans the SAME frozen shard phase, so the concatenation
    // is bit-identical to this snapshot's sequential scan — same contract,
    // intra-shard parallelism.
    std::vector<std::pair<K, V>> parallel_range_scan(
        const K& lo, const K& hi,
        const scan::ParallelScanOptions& opts = {}) const {
      if constexpr (std::is_integral_v<K>) {
        if (snaps_.size() == 1) {
          auto guard = owner_->reclaimer_->pin();
          return snaps_[0].snap.parallel_range_scan(lo, hi, opts);
        }
      }
      std::vector<std::vector<std::pair<K, V>>> parts(snaps_.size());
      scan::run_tasks(opts, snaps_.size(), [&](std::size_t i) {
        auto guard = owner_->reclaimer_->pin();
        parts[i] = snaps_[i].snap.range_scan(lo, hi);
      });
      return merge_sorted(std::move(parts));
    }

    std::size_t parallel_range_count(
        const K& lo, const K& hi,
        const scan::ParallelScanOptions& opts = {}) const {
      if constexpr (std::is_integral_v<K>) {
        if (snaps_.size() == 1) {
          auto guard = owner_->reclaimer_->pin();
          return snaps_[0].snap.parallel_range_count(lo, hi, opts);
        }
      }
      std::vector<std::size_t> parts(snaps_.size(), 0);
      scan::run_tasks(opts, snaps_.size(), [&](std::size_t i) {
        auto guard = owner_->reclaimer_->pin();
        parts[i] = snaps_[i].snap.range_count(lo, hi);
      });
      std::size_t total = 0;
      for (std::size_t c : parts) total += c;
      return total;
    }

    // Per-shard phases frozen by this snapshot (one entry per shard in the
    // snapshot's span); phases of different shards are not comparable.
    std::vector<std::uint64_t> phases() const {
      std::vector<std::uint64_t> out;
      out.reserve(snaps_.size());
      for (const auto& s : snaps_) out.push_back(s.snap.phase());
      return out;
    }

    // Lifecycle generation this snapshot's lease pins (see lifetime()).
    std::uint64_t generation() const noexcept { return lease_.generation(); }

   private:
    friend class ShardedPnbMap;
    struct ShardSnap {
      std::size_t shard;
      typename Map::Snapshot snap;
    };

    Snapshot(const ShardedPnbMap* owner, const Table* table,
             lifecycle::SnapshotLease<R>&& lease,
             std::vector<ShardSnap>&& snaps)
        : owner_(owner),
          table_(table),
          lease_(std::move(lease)),
          snaps_(std::move(snaps)) {}

    // Snapshot of the shard owning k — routed by the snapshot's own table,
    // so a reshard cannot re-route a live snapshot — or nullptr when k's
    // shard is outside this snapshot's span.
    const typename Map::Snapshot* route(const K& k) const {
      const std::size_t idx = table_->splitter.shard_of(k, NumShards);
      for (const auto& s : snaps_) {
        if (s.shard == idx) return &s.snap;
      }
      return nullptr;
    }

    const ShardedPnbMap* owner_;
    const Table* table_;
    // Declared before snaps_: the per-shard snapshots (which reference the
    // leased generation's maps) are destroyed first, the lease last.
    lifecycle::SnapshotLease<R> lease_;
    std::vector<ShardSnap> snaps_;
  };

  // Snapshot covering all shards.
  Snapshot snapshot() {
    // Lease BEFORE the table load: any table current after the acquire can
    // only retire at a generation close our lease gates, so the handle's
    // world stays reachable for its whole lifetime.
    auto lease = lifetime_.acquire();
    const Table* table = table_.load(std::memory_order_acquire);
    return snapshot_shards(table, 0, NumShards, std::move(lease));
  }

  // --- Introspection --------------------------------------------------------

  // Direct reference into the current routing generation, for tests and
  // debugging. CONTRACT (narrowed by the PR-5 auto-reclamation): the
  // reference is only guaranteed while no reshard()/rebuild_shard() runs
  // concurrently or afterwards — a cutover retires the shard it replaces,
  // and with no snapshot lease pinning it the memory is reclaimed
  // automatically (there is no purge_retired() event to wait for
  // anymore). Quiescent/introspection use only; live code goes through
  // the point ops or a Snapshot.
  Map& shard_ref(std::size_t i) {
    auto guard = reclaimer_->pin();
    return table_.load(std::memory_order_acquire)->shards[i]->map;
  }
  // Copy of the current routing function (by value: the table it lives in
  // can be reclaimed right after a cutover, so a reference would dangle).
  // A reshard can make the copy stale — introspection use only; take a
  // Snapshot for a stable routed view.
  Splitter splitter() const {
    auto guard = reclaimer_->pin();
    return table_.load(std::memory_order_acquire)->splitter;
  }
  std::size_t shard_of(const K& k) const {
    auto guard = reclaimer_->pin();
    return table_.load(std::memory_order_acquire)
        ->splitter.shard_of(k, NumShards);
  }
  // Shard count is a template constant; surfaced for generic callers.
  static constexpr std::size_t shard_count() noexcept { return NumShards; }
  // Whether the per-shard trees carry mechanism counters (obs adapters
  // gate their per-shard op-stats collector on this).
  static constexpr bool kStatsEnabled = Stats::kEnabled;

  // Per-shard key counts for the pnb_shard_size gauge (and, eventually,
  // the adaptive-sharding rebalancer). Each count is a wait-free
  // snapshot walk, O(total keys) — a scrape-cadence API, not a hot path.
  std::array<std::size_t, NumShards> shard_sizes() {
    auto guard = reclaimer_->pin();
    const Table* table = table_.load(std::memory_order_acquire);
    std::array<std::size_t, NumShards> out{};
    for (std::size_t i = 0; i < NumShards; ++i) {
      out[i] = table->shards[i]->map.size();
    }
    return out;
  }

  // Point-in-time copy of shard i's mechanism counters (all-zero under
  // NullOpStats). Plain struct, safe to hold past reclamation.
  OpStatsSnapshot shard_stats(std::size_t i) {
    auto guard = reclaimer_->pin();
    return table_.load(std::memory_order_acquire)
        ->shards[i]
        ->map.stats()
        .snapshot();
  }

  // Mechanism counters folded in from shards retired by past reshards.
  // shard_stats(i) covers only the live generation (fresh bulk-built
  // trees restart from zero at every cutover); lifetime totals are
  // carried_stats() plus the sum of the live shards.
  OpStatsSnapshot carried_stats() const {
    std::lock_guard<std::mutex> lock(reshard_mutex_);
    return carried_stats_;
  }

  // Retired-generation gauges, read lock-free off the LifetimeManager (no
  // side fields, no mutex — the manager's counters are the single source
  // of truth, updated atomically with retirement and reclamation).
  std::size_t retired_maps() const noexcept {
    return lifetime_.retired_objects();
  }
  std::size_t retired_bytes() const noexcept {
    return lifetime_.retired_bytes();
  }

  // Snapshot-lease lifecycle registry for this container (active_leases,
  // current_generation, wait_retired_bytes_below, ...).
  lifecycle::LifetimeManager<R>& lifetime() noexcept { return lifetime_; }
  const lifecycle::LifetimeManager<R>& lifetime() const noexcept {
    return lifetime_;
  }

  // Attach/detach a write-path key sampler (shard/key_sampler.h). The
  // rebalancer owns the sampler and attaches it for the duration of its
  // lifetime; nullptr detaches. Detaching does not wait for in-flight
  // writers — the sampler must outlive the last write that could observe
  // the pointer (the Rebalancer guarantees this by only detaching at
  // destruction, after stop(), when the caller has quiesced writers, the
  // same quiescence the map's own destructor already assumes).
  void set_key_sampler(KeySampler<K>* sampler)
    requires std::is_integral_v<K>
  {
    key_sampler_.store(sampler, std::memory_order_release);
  }

  // Admission-control policy consulted by apply_batch (ingest/admission.h).
  // Safe to call while batches are in flight: the config is guarded by a
  // small mutex and each apply_batch snapshots it once on entry.
  void set_admission(const ingest::AdmissionConfig& cfg) {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    admission_ = cfg;
  }
  ingest::AdmissionConfig admission() const {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    return admission_;
  }

  // Monotone admission-outcome gauges, aggregated across every apply_batch
  // since construction (BatchResult::deferred is per-call; these are the
  // per-container source of truth for shed-rate reporting — the
  // pnb_admission_* /metrics families read them). Lock-free relaxed reads: the
  // counters are independent, so a snapshot taken under load may be
  // mid-update by one batch, which is fine for gauges.
  ingest::AdmissionStats admission_stats() const noexcept {
    ingest::AdmissionStats s;
    s.admitted = adm_admitted_.load(std::memory_order_relaxed);
    s.blocked = adm_blocked_.load(std::memory_order_relaxed);
    s.deferred = adm_deferred_.load(std::memory_order_relaxed);
    s.timed_out = adm_timed_out_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  // One immutable (splitter, shards) routing generation. Published through
  // table_; operations load it once and stay internally consistent.
  // `migration` (non-null only on the intermediate generation a migration
  // publishes) is the single extra field; the writer gauges live on the
  // Shard objects, which tables share forward across rebuilds.
  struct Table {
    Table() = default;
    Table(const Table& o) : splitter(o.splitter), shards(o.shards) {}
    Table& operator=(const Table&) = delete;

    Splitter splitter{};
    std::array<Shard*, NumShards> shards{};
    MigrationState* migration = nullptr;
  };

  // Write-intent ledgers of one in-flight migration, covering shards
  // [first, last). A writer on a covered shard records its op(s) under the
  // shard's ledger lock before applying them to the pre-migration world;
  // the migration replays every recorded op in order into the replacement
  // maps before the cutover, then closes the ledger (open = false) under
  // the locks — a writer observing the closed ledger re-routes itself to
  // the already-published new table.
  struct MigrationState {
    MigrationState(std::size_t f, std::size_t l) : first(f), last(l) {}

    bool covers(std::size_t s) const noexcept {
      return s >= first && s < last;
    }

    struct Ledger {
      std::mutex mu;
      std::vector<batch_op> ops;  // guarded by mu; recorded in accept order
    };

    std::size_t first;
    std::size_t last;
    std::array<Ledger, NumShards> ledgers;
    std::atomic<bool> open{true};
  };

  // Routes replayed ledger ops through the NEW table's splitter: a reshard
  // changes key→shard ownership, so an op recorded under the old routing
  // must find its key's new home. The fresh maps are private to the
  // migration until the cutover publishes them (plus late re-routed
  // writers, which are ordinary concurrent traffic for a live PnbMap).
  struct ReplayRouter {
    const Table* target;
    bool insert(K k, V v) {
      Shard* sh = target->shards[target->splitter.shard_of(k, NumShards)];
      return sh->map.insert(std::move(k), std::move(v));
    }
    bool erase(const K& k) {
      Shard* sh = target->shards[target->splitter.shard_of(k, NumShards)];
      return sh->map.erase(k);
    }
  };

  // --- Writer protocol ------------------------------------------------------
  //
  // Every write enters its shard's writer gauge and re-checks the
  // published table pointer (both seq_cst): if the re-check still returns
  // t, a migration's later table store is ordered after it, so the
  // migration's drain loop must observe the gauge increment and wait for
  // the write to finish; if the re-check fails, the writer backs out
  // without touching the shard and retries on the new table. A write that
  // will RECORD into a migration ledger releases the gauge the moment it
  // commits to recording — before even queueing on the ledger lock; the
  // record-or-retry guarantee covers it from that point on, and writers
  // stacked on the lock would otherwise keep the gauge nonzero and
  // starve the drain. Hence after drain_writers
  // returns, every write that can still reach a to-be-snapshotted map is
  // recorded in a ledger first — the loss-freedom linchpin.

  enum class WriteAdmit {
    kCounted,   // proceed; caller holds the gauge and must exit_writer
    kRecorded,  // proceed; intent recorded, gauge already released
    kRetry,     // table moved or ledger closed: reload and re-route
  };

  // Gauges the write in, re-checks the table, and records the intent when
  // shard s is migrating. `record` appends the intent op(s) to the ledger
  // vector it is handed.
  template <class RecordFn>
  WriteAdmit admit_write(const Table* t, std::size_t s, RecordFn&& record) {
    Shard* sh = t->shards[s];
    sh->writers.fetch_add(1, std::memory_order_seq_cst);
    if (table_.load(std::memory_order_seq_cst) != t) {
      sh->writers.fetch_sub(1, std::memory_order_release);
      return WriteAdmit::kRetry;
    }
    MigrationState* mig = t->migration;
    if (mig == nullptr || !mig->covers(s)) return WriteAdmit::kCounted;
    // Committed to record-or-retry: from here the write either lands in
    // the ledger (replay covers it) or bounces to the new table — it can
    // no longer reach the old world unrecorded. Release the gauge BEFORE
    // queueing on the ledger lock, so writers stacked up on a busy
    // migrating shard cannot keep the drain spinning.
    sh->writers.fetch_sub(1, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lk(mig->ledgers[s].mu);
      if (!mig->open.load(std::memory_order_acquire)) {
        return WriteAdmit::kRetry;
      }
      record(mig->ledgers[s].ops);
    }
    return WriteAdmit::kRecorded;
  }

  void exit_writer(const Table* t, std::size_t s) {
    t->shards[s]->writers.fetch_sub(1, std::memory_order_release);
  }

  // Write-path sampling hook: one relaxed load when no sampler is attached
  // (the common case), compiled out entirely for non-integral keys. Called
  // BEFORE admission/routing so sampled keys reflect offered load, not just
  // admitted load — the rebalancer wants to know where pressure is, and a
  // shed write is still pressure.
  void sample_key(const K& k) noexcept {
    if constexpr (std::is_integral_v<K>) {
      if (KeySampler<K>* ks = key_sampler_.load(std::memory_order_acquire)) {
        ks->maybe_record(k);
      }
    } else {
      (void)k;
    }
  }

  // The single-key write protocol shared by insert/erase/assign: route on
  // the loaded table, admit (gauge + re-check + intent recording), apply
  // through the routed shard's ordinary path, release the gauge when the
  // admit left it counted, and re-route from scratch whenever a cutover
  // moved the table underneath us. `record` appends the op's intent to a
  // ledger vector; `apply` performs it on the routed Map and returns the
  // ack.
  template <class RecordFn, class ApplyFn>
  bool routed_write(const K& k, RecordFn&& record, ApplyFn&& apply) {
    sample_key(k);
    auto guard = reclaimer_->pin();
    for (;;) {
      const Table* t = table_.load(std::memory_order_seq_cst);
      const std::size_t s = t->splitter.shard_of(k, NumShards);
      const WriteAdmit a = admit_write(t, s, record);
      if (a == WriteAdmit::kRetry) continue;
      const bool r = apply(t->shards[s]->map);
      if (a == WriteAdmit::kCounted) exit_writer(t, s);
      return r;
    }
  }

  // Waits until no unrecorded write is still in flight on the shards
  // about to be snapshotted. Recording writers release their gauge before
  // queueing on the ledger lock, so a write-heavy migration window cannot
  // starve this.
  void drain_writers(const Table* t, std::size_t first, std::size_t last) {
    Backoff backoff;
    for (std::size_t s = first; s < last; ++s) {
      while (t->shards[s]->writers.load(std::memory_order_seq_cst) != 0) {
        backoff.pause();
      }
    }
  }

  // Publishes the intermediate migration generation: same routing as
  // t_old, plus the write-intent ledgers. After this store every NEW
  // writer on a covered shard records before applying; drain_writers then
  // waits out the writes that entered t_old before the store.
  Table* publish_migration(const Table* t_old, MigrationState* mig) {
    auto* t_m = new Table(*t_old);
    t_m->migration = mig;
    table_.store(t_m, std::memory_order_seq_cst);
    return t_m;
  }

  // Replays the ledgers into t_new, cuts over, closes the migration, and
  // retires the whole old generation {t_old, t_m, mig, replaced maps} to
  // the lifecycle manager. `replaced` carries (map, entry-count estimate)
  // pairs for the retired-bytes gauge.
  void finish_migration(const Table* t_old, Table* t_m, MigrationState* mig,
                        Table* t_new,
                        std::vector<std::pair<Shard*, std::size_t>> replaced) {
    ReplayRouter router{t_new};
    // Bulk pass outside the locks: drain what accumulated during the
    // rebuild so the locked window below only covers stragglers.
    for (std::size_t s = mig->first; s < mig->last; ++s) {
      std::vector<batch_op> taken;
      {
        std::lock_guard<std::mutex> lk(mig->ledgers[s].mu);
        taken.swap(mig->ledgers[s].ops);
      }
      ingest::apply_ordered<K, V>(router, taken);
    }
    // Final pass under ALL covered ledger locks: replay the remainder,
    // publish the new table, then close the ledgers. A writer blocked on a
    // lock here observes open == false afterwards and re-routes to the
    // table published one line earlier — no acknowledged write can fall
    // between the replay and the cutover.
    {
      std::vector<std::unique_lock<std::mutex>> locks;
      locks.reserve(mig->last - mig->first);
      for (std::size_t s = mig->first; s < mig->last; ++s) {
        locks.emplace_back(mig->ledgers[s].mu);
      }
      for (std::size_t s = mig->first; s < mig->last; ++s) {
        ingest::apply_ordered<K, V>(router, mig->ledgers[s].ops);
        mig->ledgers[s].ops.clear();
      }
      table_.store(t_new, std::memory_order_seq_cst);
      mig->open.store(false, std::memory_order_release);
    }
    // The cutover instant — the event the trace timeline anchors shard
    // rebalances on (arg = lifecycle generation being retired).
    obs::trace_event(obs::TraceKind::kReshardCutover,
                     lifetime_.current_generation());
    // Fold the retiring shards' mechanism counters into the carried
    // aggregate before they're reclaimed; bulk_load rebuilds fresh trees
    // with zeroed stats, so without this every reshard would erase the
    // generation's history. Serialized by reshard_mutex_ (both callers
    // hold it); readers go through carried_stats() under the same lock.
    for (const auto& [sh, entries] : replaced) {
      (void)entries;
      accumulate_stats(carried_stats_, sh->map.stats().snapshot());
    }
    std::vector<lifecycle::RetiredResource> resources;
    resources.reserve(replaced.size() + 3);
    resources.push_back({const_cast<Table*>(t_old), &delete_table,
                         sizeof(Table), /*primary=*/false});
    resources.push_back({t_m, &delete_table, sizeof(Table),
                         /*primary=*/false});
    resources.push_back({mig, &delete_migration, sizeof(MigrationState),
                         /*primary=*/false});
    for (const auto& [sh, entries] : replaced) {
      resources.push_back(
          {sh, &delete_shard, map_bytes_estimate(entries), /*primary=*/true});
    }
    lifetime_.retire_generation(std::move(resources));
  }

  // --- Lifecycle deleters / sizing ------------------------------------------

  static void delete_shard(void* p) { delete static_cast<Shard*>(p); }
  static void delete_table(void* p) { delete static_cast<Table*>(p); }
  static void delete_migration(void* p) {
    delete static_cast<MigrationState*>(p);
  }

  // Footprint estimate of a retired shard map for the admission gauge: a
  // leaf-oriented tree with n entries holds ~n leaves and ~n internals.
  static std::size_t map_bytes_estimate(std::size_t entries) {
    return sizeof(Shard) +
           entries * (sizeof(typename Map::Tree::Leaf) +
                      sizeof(typename Map::Tree::Internal));
  }

  // Shard routed for a read: the epoch pin the CALLER holds keeps the
  // loaded table (and the map behind it) alive for the read's duration —
  // retired generations reach the reclaimer only via retire_generation,
  // which happens after this load, so the grace period covers us.
  Map& shard(const K& k) {
    const Table* table = table_.load(std::memory_order_acquire);
    return table->shards[table->splitter.shard_of(k, NumShards)]->map;
  }

  // Snapshot restricted to the shards that can hold keys of [lo, hi].
  Snapshot snapshot_span(const K& lo, const K& hi) {
    auto lease = lifetime_.acquire();  // before the load; see snapshot()
    const Table* table = table_.load(std::memory_order_acquire);
    const auto [first, last] =
        table->splitter.shard_span(lo, hi, NumShards);
    return snapshot_shards(table, first, last, std::move(lease));
  }

  Snapshot snapshot_shards(const Table* table, std::size_t first,
                           std::size_t last,
                           lifecycle::SnapshotLease<R>&& lease) {
    std::vector<typename Snapshot::ShardSnap> snaps;
    snaps.reserve(last - first);
    for (std::size_t i = first; i < last; ++i) {
      snaps.push_back({i, table->shards[i]->map.snapshot()});
    }
    return Snapshot(this, table, std::move(lease), std::move(snaps));
  }

  // k-way merge of ascending per-shard runs. Cursor scan: O(total · parts),
  // with parts = NumShards small and runs disjoint under RangeSplitter this
  // beats a heap in practice and stays obviously correct.
  static std::vector<std::pair<K, V>> merge_sorted(
      std::vector<std::vector<std::pair<K, V>>>&& parts) {
    Compare cmp{};
    std::size_t total = 0;
    for (const auto& p : parts) total += p.size();
    std::vector<std::pair<K, V>> out;
    out.reserve(total);
    std::vector<std::size_t> pos(parts.size(), 0);
    while (out.size() < total) {
      std::size_t best = parts.size();
      for (std::size_t i = 0; i < parts.size(); ++i) {
        if (pos[i] >= parts[i].size()) continue;
        if (best == parts.size() ||
            cmp(parts[i][pos[i]].first, parts[best][pos[best]].first)) {
          best = i;
        }
      }
      out.push_back(std::move(parts[best][pos[best]]));
      ++pos[best];
    }
    return out;
  }

  void record_admission(ingest::AdmissionOutcome o) noexcept {
    using ingest::AdmissionOutcome;
    switch (o) {
      case AdmissionOutcome::kAdmitted:
        adm_admitted_.fetch_add(1, std::memory_order_relaxed);
        break;
      case AdmissionOutcome::kAdmittedAfterWait:
        adm_admitted_.fetch_add(1, std::memory_order_relaxed);
        adm_blocked_.fetch_add(1, std::memory_order_relaxed);
        break;
      case AdmissionOutcome::kDeferred:
        adm_deferred_.fetch_add(1, std::memory_order_relaxed);
        obs::trace_event(obs::TraceKind::kAdmissionShed,
                         lifetime_.retired_bytes());
        break;
      case AdmissionOutcome::kTimedOut:
        adm_blocked_.fetch_add(1, std::memory_order_relaxed);
        adm_timed_out_.fetch_add(1, std::memory_order_relaxed);
        obs::trace_event(obs::TraceKind::kAdmissionShed,
                         lifetime_.retired_bytes());
        break;
    }
  }

  R* reclaimer_;
  lifecycle::LifetimeManager<R> lifetime_;
  // Guarded by admission_mutex_ (runtime-tunable from any thread).
  ingest::AdmissionConfig admission_{};
  mutable std::mutex admission_mutex_;
  // Admission-outcome gauges (admission_stats()); relaxed monotone counters.
  std::atomic<std::uint64_t> adm_admitted_{0};
  std::atomic<std::uint64_t> adm_blocked_{0};
  std::atomic<std::uint64_t> adm_deferred_{0};
  std::atomic<std::uint64_t> adm_timed_out_{0};
  // Optional write-path key sampler (set_key_sampler); null = sampling off.
  std::atomic<KeySampler<K>*> key_sampler_{nullptr};
  std::atomic<const Table*> table_{nullptr};
  static void accumulate_stats(OpStatsSnapshot& into,
                               const OpStatsSnapshot& from) noexcept {
    into.attempts += from.attempts;
    into.commits += from.commits;
    into.handshake_aborts += from.handshake_aborts;
    into.freeze_fail_aborts += from.freeze_fail_aborts;
    into.validate_fails += from.validate_fails;
    into.helps += from.helps;
    into.scans += from.scans;
    into.scan_helps += from.scan_helps;
    into.child_cas_failures += from.child_cas_failures;
    into.nodes_allocated += from.nodes_allocated;
    into.infos_allocated += from.infos_allocated;
    into.nodes_retired += from.nodes_retired;
    into.unpublished_frees += from.unpublished_frees;
  }

  // Serializes reshard()/rebuild_shard() (one migration at a time).
  mutable std::mutex reshard_mutex_;
  // Sum of retired generations' shard stats (guarded by reshard_mutex_).
  OpStatsSnapshot carried_stats_{};
};

// The sharded front-end models the same concepts as the single-shard map.
static_assert(OrderedMap<ShardedPnbMap<long, long, 4>, long, long>);
static_assert(MapScannable<ShardedPnbMap<long, long, 4>, long, long>);
static_assert(ParallelScannable<ShardedPnbMap<long, long, 4>, long>);
static_assert(Snapshottable<ShardedPnbMap<long, long, 4>>);
static_assert(BatchIngestible<ShardedPnbMap<long, long, 4>>);
static_assert(
    OrderedMap<ShardedPnbMap<long, long, 4, RangeSplitter<long>>, long, long>);
static_assert(
    BatchIngestible<ShardedPnbMap<long, long, 4, RangeSplitter<long>>>);

}  // namespace pnbbst

// Network front-end: an epoll reactor serving ShardedPnbMap over the
// PNB-KV protocol (protocol.h). Linux-only (epoll + eventfd).
//
// Threading model (docs/DESIGN.md §13)
// ------------------------------------
//   * `loops` event-loop threads, each owning one epoll instance and a
//     disjoint set of connections (accepted sockets are assigned
//     round-robin, woken via eventfd). A connection lives its whole
//     life on one loop, so per-connection state (FrameReader,
//     WriteBuffer) is single-threaded by construction — no locks on the
//     data path.
//   * All request execution happens ON the owning loop thread, against
//     the shared ShardedPnbMap. The map's own guarantees do the heavy
//     lifting: point ops are lock-free per shard, RANGE takes wait-free
//     snapshots, BATCH funnels through ingest::apply_batch. RANGE and
//     BATCH additionally fan their per-shard work across the server's
//     ScanExecutor (scan_threads wide), so one loop thread drives
//     multi-core scans without stalling siblings.
//   * Nothing on a loop thread blocks: sockets are non-blocking, and
//     the server forces the map's admission policy to kDefer at start —
//     a batch arriving over the retired-bytes watermark is bounced
//     inside apply_batch and surfaces as a protocol-level kRetry
//     response (overload shedding) instead of parking the loop in
//     wait_retired_bytes_below.
//
// Write coalescing: all responses produced by one read burst accumulate
// in the connection's WriteBuffer and leave in single write() calls;
// EPOLLOUT interest is registered only while a partial write is pending.
//
// Lifetime: the caller owns the map and must keep it alive across
// start()..stop(). stop() joins the loops and closes every connection;
// the destructor calls stop().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mem/alloc_policy.h"
#include "obs/registry.h"
#include "scan/executor.h"
#include "server/framing.h"
#include "server/protocol.h"
#include "shard/sharded_map.h"

namespace pnbbst::net {

// The concrete serving type: 8 range-partitioned shards of int64 -> int64.
// RangeSplitter keeps narrow RANGE queries on single shards; the keyspace
// bounds come from the map the caller constructs. The serving map carries
// CountingOpStats (per-shard mechanism gauges for the obs registry and
// the adaptive-sharding roadmap item — relaxed counters, measured in the
// micro_ops obs ablation) and allocates from the pooled arena domains
// (pnb_arena_* gauges observe the serving path).
using ServerMap =
    ShardedPnbMap<std::int64_t, std::int64_t, 8, RangeSplitter<std::int64_t>,
                  std::less<std::int64_t>, EpochReclaimer, CountingOpStats,
                  mem::ArenaAlloc>;

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;   // 0 = ephemeral; read the bound port via port()
  unsigned loops = 1;       // event-loop threads
  // Worker width for RANGE fan-out and BATCH shard fan-out (0 = one
  // task at a time, i.e. the loop thread alone).
  unsigned scan_threads = 2;
  std::size_t max_frame_bytes = kMaxFrameBytes;
  // Hard cap on pairs in one RANGE response regardless of the client's
  // limit field (bounds response frames and server-side materialization).
  std::uint32_t range_pair_cap = 60000;
  // When set, installed as the map's retired-bytes shed watermark at
  // start(). Policy is forced to kDefer either way (the event loop must
  // never block in admission).
  std::optional<std::size_t> shed_watermark;
  // When set, start() also binds a plain-HTTP listener on this port
  // (0 = ephemeral; read via metrics_port()) answering GET /metrics
  // with the obs registry's Prometheus text. nullopt = no listener.
  std::optional<std::uint16_t> metrics_port;
  // Op-latency sampling rate for the obs latency plane: every Nth frame
  // per loop thread gets timed (0 disables). Applied process-wide at
  // start() (the plane is global).
  std::uint32_t latency_sample_every = 64;
};

// Monotone server-side counters (relaxed atomics; the /metrics
// collector and benchmarks read them).
struct ServerStats {
  std::uint64_t ops_served = 0;
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_open = 0;
  std::uint64_t batch_ops_applied = 0;
  std::uint64_t shed_responses = 0;
  std::uint64_t range_queries = 0;
  std::uint64_t bad_frames = 0;
  // Frames decoded per opcode, whatever the outcome (indexable by the
  // Opcode value via req(); pnb_server_requests_total{op=...}).
  std::uint64_t req_get = 0;
  std::uint64_t req_put = 0;
  std::uint64_t req_del = 0;
  std::uint64_t req_batch = 0;
  std::uint64_t req_range = 0;
  std::uint64_t req_metrics = 0;
};

class Server {
 public:
  Server(ServerMap& map, ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, spawns the loop threads. Returns false (with the
  // reason on stderr) when the socket setup fails; idempotent start is
  // not supported — one Server, one start/stop cycle.
  bool start();

  // Signals every loop, joins the threads, closes all sockets. Safe to
  // call twice; also called by the destructor.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  // Bound port (valid after start(); resolves ephemeral port 0).
  std::uint16_t port() const noexcept { return bound_port_; }
  // Bound /metrics HTTP port (0 when the listener is disabled).
  std::uint16_t metrics_port() const noexcept { return metrics_port_; }
  const ServerConfig& config() const noexcept { return cfg_; }

  ServerStats stats() const noexcept;

 private:
  struct Conn;
  struct Loop;

  void loop_main(Loop& loop);
  void handle_accepts(Loop& loop);
  void adopt_pending(Loop& loop);
  void handle_readable(Loop& loop, Conn& c);
  void handle_frame(Conn& c, const std::vector<std::uint8_t>& body);
  void flush_writes(Loop& loop, Conn& c);
  void close_conn(Loop& loop, Conn& c);
  void update_write_interest(Loop& loop, Conn& c);
  bool start_metrics_listener();
  void metrics_main();
  void register_gauges();

  ServerMap& map_;
  ServerConfig cfg_;
  scan::ScanExecutor executor_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<std::size_t> next_loop_{0};  // round-robin accept assignment

  // /metrics HTTP listener (optional; see ServerConfig::metrics_port).
  int metrics_fd_ = -1;
  std::uint16_t metrics_port_ = 0;
  std::thread metrics_thread_;
  // Releases this server's registry collectors at stop() so a later
  // server (tests cycle them) can re-register without duplicates.
  obs::Registration obs_reg_;

  std::atomic<std::uint64_t> ops_served_{0};
  std::atomic<std::uint64_t> conns_accepted_{0};
  std::atomic<std::uint64_t> conns_open_{0};
  std::atomic<std::uint64_t> batch_ops_applied_{0};
  std::atomic<std::uint64_t> shed_responses_{0};
  std::atomic<std::uint64_t> range_queries_{0};
  std::atomic<std::uint64_t> bad_frames_{0};
  std::atomic<std::uint64_t> req_counts_[8] = {};  // indexed by Opcode value
};

}  // namespace pnbbst::net

// Networked key/value service: the whole PR-7 stack in one binary. An
// epoll Server fronts a ShardedPnbMap on a loopback ephemeral port; a
// few Client connections drive point traffic, one bulk-loads through
// BATCH frames, one watches with RANGE queries; then the open-loop load
// generator measures the service's SLO latency (p50/p99/p999 from the
// scheduled send time, coordinated-omission-safe) and a METRICS scrape
// reports the server- and map-side gauges — including the shed counters
// that would light up under retired-bytes overload. The server also
// exposes the observability plane (DESIGN.md §14): a Prometheus /metrics
// HTTP listener on an ephemeral port, announced after the traffic as a
// METRICS_URL= line that tools/obs_scrape.py --spawn parses to scrape
// and validate the page while the binary lingers.
//
//   build/examples/networked_kv [--events=N] [--conns=N] [--qps=N]
//                               [--linger-ms=N]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <inttypes.h>
#include <string>
#include <thread>
#include <vector>

#include "loadgen/client.h"
#include "loadgen/loadgen.h"
#include "server/server.h"
#include "shard/rebalance.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace pnbbst;
  Cli cli(argc, argv);
  const long events = cli.get_int("events", 50000);
  const unsigned conns = static_cast<unsigned>(cli.get_int("conns", 2));
  const double qps = cli.get_double("qps", 4000.0);
  // Keep serving this long after the workload finishes, so an external
  // scraper (CI's obs_scrape --spawn step) has a window to hit /metrics.
  const long linger_ms = cli.get_int("linger-ms", 0);
  for (const auto& unknown : cli.unknown()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return 2;
  }

  constexpr std::int64_t kKeySpace = 1 << 16;
  net::ServerMap map(RangeSplitter<std::int64_t>{0, kKeySpace});
  net::ServerConfig scfg;
  scfg.loops = 2;
  scfg.metrics_port = 0;  // ephemeral /metrics HTTP listener
  net::Server server(map, scfg);
  if (!server.start()) return 1;
  std::printf("serving 127.0.0.1:%u (2 event loops, 8 shards)\n",
              server.port());

  // Adaptive sharding on the serving map: the rebalancer senses skew off
  // the same per-shard families the server just registered (label
  // selector == the server's port label) and reshards through the
  // loss-free migration path while traffic runs. The sequential bulk
  // load below lands on the low shards, so a trigger is expected.
  char port_label[32];
  std::snprintf(port_label, sizeof(port_label), "port=\"%u\"",
                server.port());
  Rebalancer<net::ServerMap>::Config rcfg;
  rcfg.labels = port_label;
  rcfg.interval = std::chrono::milliseconds(100);
  Rebalancer<net::ServerMap> rebalancer(map, rcfg);
  rebalancer.start();

  // Bulk load through the wire: BATCH frames funnel into
  // ingest::apply_batch (deduped, shard-parallel) server-side.
  net::Client loader;
  if (!loader.connect("127.0.0.1", server.port())) return 1;
  std::vector<net::BatchEntry> batch;
  long loaded = 0;
  for (long k = 0; k < events; ++k) {
    batch.push_back(net::BatchEntry::insert(k % kKeySpace, k));
    if (batch.size() == 4096 || k + 1 == events) {
      const auto br = loader.batch(batch);
      if (br.status != net::Status::kOk) {
        std::fprintf(stderr, "batch rejected (status %u)\n",
                     static_cast<unsigned>(br.status));
        return 1;
      }
      loaded += static_cast<long>(br.applied);
      batch.clear();
    }
  }
  std::printf("bulk-loaded %ld ops over BATCH frames\n", loaded);

  // Point and range traffic on separate connections.
  net::Client reader;
  if (!reader.connect("127.0.0.1", server.port())) return 1;
  const auto got = reader.get(123);
  std::printf("GET 123 -> %s\n",
              got.status == net::Status::kOk ? "hit" : "miss");
  const auto rr = reader.range(0, kKeySpace, 0);
  std::printf("RANGE count over the keyspace: %" PRIu64 " keys\n", rr.count);
  const auto first = reader.range(1000, 2000, 5);
  std::printf("RANGE first-5 of [1000,2000]: %zu pairs\n",
              first.pairs.size());

  // Open-loop load: requests due on a fixed schedule, latency measured
  // from the scheduled send time so server stalls inflate the tail.
  loadgen::LoadOptions lopts;
  lopts.port = server.port();
  lopts.connections = conns;
  lopts.seconds = 0.5;
  lopts.target_qps = qps;
  lopts.key_range = kKeySpace;
  const loadgen::LoadResult lr = run_load(lopts);
  std::printf("open loop @ %.0f qps x %u conns: %.0f qps served, "
              "p50=%.1fus p99=%.1fus p999=%.1fus (%" PRIu64 " late)\n",
              qps, conns, lr.qps(),
              static_cast<double>(lr.latency_ns.p50()) / 1000.0,
              static_cast<double>(lr.latency_ns.p99()) / 1000.0,
              static_cast<double>(lr.latency_ns.p999()) / 1000.0,
              lr.late_sends);

  // METRICS over the wire: the same Prometheus text the HTTP listener
  // serves. Print the server counters plus the map's admission and
  // lifecycle gauges (sheds would appear as batches_deferred > 0).
  const auto mr = reader.metrics();
  if (mr.status != net::Status::kOk) return 1;
  std::printf("METRICS opcode: %zu bytes of Prometheus text\n",
              mr.text.size());
  // One sample by exact name and label set; 0 when absent.
  const auto metric = [&](const char* name, const std::string& labels) {
    const std::string key = std::string("\n") + name + "{" + labels + "} ";
    const std::size_t at = mr.text.find(key);
    return at == std::string::npos
               ? 0.0
               : std::strtod(mr.text.c_str() + at + key.size(), nullptr);
  };
  const std::string pl = port_label;
  std::printf("stats: ops_served=%.0f conns_accepted=%.0f batch_ops=%.0f"
              " batches_admitted=%.0f batches_deferred=%.0f"
              " batches_shed=%.0f retired_bytes=%.0f\n",
              metric("pnb_server_ops_served_total", pl),
              metric("pnb_server_conns_accepted_total", pl),
              metric("pnb_server_batch_ops_applied_total", pl),
              metric("pnb_admission_admitted_total", pl),
              metric("pnb_admission_deferred_total", pl),
              metric("pnb_admission_shed_total", pl),
              metric("pnb_lifecycle_retired_bytes", pl));
  std::printf("requests:");
  for (const char* op : {"get", "put", "del", "batch", "range", "metrics"}) {
    std::printf(" %s=%.0f", op,
                metric("pnb_server_requests_total",
                       pl + ",op=\"" + op + "\""));
  }
  std::printf("\n");

  // Announced only now, so a scraper that fetches the moment the line
  // appears sees a page with traffic on it: sampled op latencies, engine
  // counters and the pnb_rebalance_* families.
  std::printf("METRICS_URL=http://127.0.0.1:%u/metrics\n",
              server.metrics_port());
  std::fflush(stdout);
  if (linger_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }
  server.stop();
  rebalancer.stop();
  std::printf("rebalancer: %" PRIu64 " adaptive reshards, last skew %.2f\n",
              rebalancer.triggers(), rebalancer.last_skew());
  std::printf("done: map holds %zu keys\n", map.size());
  return lr.errors == 0 ? 0 : 1;
}

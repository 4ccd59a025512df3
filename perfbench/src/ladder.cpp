// Single-thread layer ladder (trace runs). The workload's first seeded
// stream is replayed, one call at a time, through each rung:
//   core    PnbBst of the shard type (ServerMap::Map::Tree), all keys
//   map     PnbMap (ServerMap::Map)
//   shard   ShardedPnbMap (ServerMap), 8 range shards
//   server  the loopback net::Server over that map, 1 request in flight,
//           then kWindow pipelined
// Each rung starts from the same prefill and replays the same calls, so a
// rung's ns/op minus the rung below is that layer's own cost.
#include <algorithm>

#include "perfbench.h"

namespace perfbench {

namespace {

constexpr std::size_t kPointCalls = 200'000;  // per in-process rung
constexpr std::size_t kPageCalls = 4'000;
constexpr std::size_t kNetCalls = 20'000;     // one request in flight
constexpr std::size_t kPipedCalls = 96'000;   // windows of kWindow

using Tree = ServerMap::Map::Tree;
using Entry = ServerMap::Map::Entry;

// Median ns/call over kRounds consecutive chunks of `calls`, so one
// stall on a shared machine does not move the rung.
template <class Fn>
double ns_per_call(const std::vector<Req>& calls, Fn&& fn) {
  constexpr std::size_t kRounds = 5;
  const std::size_t chunk = calls.size() / kRounds;
  std::vector<double> ns;
  for (std::size_t r = 0; r < kRounds; ++r) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = r * chunk; i < (r + 1) * chunk; ++i) fn(calls[i]);
    ns.push_back(static_cast<double>(now_ns() - t0) /
                 static_cast<double>(chunk));
  }
  std::sort(ns.begin(), ns.end());
  return ns[kRounds / 2];
}

}  // namespace

void run_ladder(const Workload& w, const Options& o, Report& rep) {
  const std::vector<Key> keys = prefill_keys(w.key_range, o.seed);
  std::vector<Req> points, pages;
  CallStream stream(w.mixes[0], w.key_range, o.seed, 0, w.pages);
  while (points.size() < kPointCalls) {
    const Req r = stream.next();
    if (!is_query(r.call)) points.push_back(r);
  }
  CallStream queries({0.0, 0.0, 0.0, 1.0, kScanWidth}, w.key_range, o.seed,
                     static_cast<unsigned>(w.mixes.size()), true);
  while (pages.size() < kPageCalls) {
    const Req r = queries.next();
    if (r.call == Call::kPage) pages.push_back(r);
  }
  const Phase unsliced = Phase::starting_now(0.0);
  Tally t(unsliced);

  double tree_ns = 0.0;
  {
    Tree tree;
    for (Key k : keys) tree.insert(Entry(k, k));
    tree_ns = ns_per_call(points, [&](const Req& r) {
      switch (r.call) {
        case Call::kGet: {
          const std::optional<Entry> e = tree.get(r.lo);
          check_get(r, e ? std::optional<Key>(e->value()) : std::nullopt, t);
          break;
        }
        case Call::kInsert:
          tree.insert(Entry(r.lo, r.lo));
          break;
        default:
          tree.erase(r.lo);
          break;
      }
    });
  }
  double map_ns = 0.0, map_page_ns = 0.0;
  {
    ServerMap::Map map;
    for (Key k : keys) map.insert(k, k);
    map_ns = ns_per_call(points, [&](const Req& r) { apply(map, r, t); });
    map_page_ns = ns_per_call(pages, [&](const Req& r) { apply(map, r, t); });
  }

  ServerMap sharded(pnbbst::RangeSplitter<Key>{0, w.key_range});
  for (Key k : keys) sharded.insert(k, k);
  const double shard_ns =
      ns_per_call(points, [&](const Req& r) { apply(sharded, r, t); });
  const double shard_page_ns =
      ns_per_call(pages, [&](const Req& r) { apply(sharded, r, t); });

  const KeepAwake awake;
  const std::unique_ptr<pnbbst::net::Server> server = start_server(sharded);
  pnbbst::net::Client client;
  const bool up =
      server->running() && client.connect("127.0.0.1", server->port());
  rep.check(up, "ladder server reachable over loopback");
  if (!up) return;
  WindowTimes single, piped;
  std::vector<Req> window;
  auto send = [&](std::size_t first, std::size_t n, std::size_t width,
                  WindowTimes& wt) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = first; i < first + n; i += width) {
      window.assign(points.begin() + static_cast<std::ptrdiff_t>(i),
                    points.begin() + static_cast<std::ptrdiff_t>(i + width));
      if (!send_window(client, window, unsliced, t, wt, nullptr)) break;
    }
    return static_cast<double>(now_ns() - t0) / static_cast<double>(n);
  };
  const double request_ns = send(0, kNetCalls, 1, single);
  const double piped_ns = send(kNetCalls, kPipedCalls, kWindow, piped);
  const pnbbst::net::ServerStats stats = server->stats();
  client.close();
  server->stop();

  rep.metric("core.op_ns", tree_ns, "ns");
  rep.metric("map.op_ns", map_ns, "ns");
  rep.metric("map.self_ns", map_ns - tree_ns, "ns");
  rep.metric("shard.op_ns", shard_ns, "ns");
  rep.metric("shard.self_ns", shard_ns - map_ns, "ns");
  rep.metric("shard.page_self_ns", shard_page_ns - map_page_ns, "ns");
  rep.metric("server.request_ns", request_ns, "ns");
  rep.metric("server.self_ns", request_ns - shard_ns, "ns");
  rep.metric("server.pipelined_request_ns", piped_ns, "ns");
  // The served workload measures its client and shedding under its own
  // traffic; elsewhere the ladder's pipelined rung stands in.
  if (!rep.has_metric("client.send_ns_per_req")) {
    const auto n = static_cast<double>(kPipedCalls);
    rep.metric("client.send_ns_per_req",
               static_cast<double>(piped.send_ns) / n, "ns");
    rep.metric("client.wait_ns_per_req",
               static_cast<double>(piped.wait_ns) / n, "ns");
  }
  if (!rep.has_metric("server.shed_share")) {
    rep.metric("server.shed_share",
               static_cast<double>(stats.shed_responses) /
                   static_cast<double>(stats.ops_served),
               "share");
  }
  rep.detail("ladder_ns_per_call",
             "{\"tree\": " + json_num(tree_ns) + ", \"map\": " +
                 json_num(map_ns) + ", \"sharded\": " + json_num(shard_ns) +
                 ", \"server_1_in_flight\": " + json_num(request_ns) +
                 ", \"server_window_16\": " + json_num(piped_ns) +
                 ", \"map_page\": " + json_num(map_page_ns) +
                 ", \"sharded_page\": " + json_num(shard_page_ns) +
                 ", \"point_calls\": " + std::to_string(kPointCalls) +
                 ", \"page_calls\": " + std::to_string(kPageCalls) + "}");
  rep.check(t.check_failures == 0 && t.failed == 0,
            "ladder answers: " + std::to_string(t.check_failures) +
                " wrong, " + std::to_string(t.failed) + " failed");
}

}  // namespace perfbench

// Served workload (served_small): one net::Server in this process over
// loopback; client connections each keep a closed-loop window of kWindow
// pipelined requests through Client::send_bytes / recv_frame.
#include <array>

#include "perfbench.h"

namespace perfbench {

namespace {

using pnbbst::net::Client;
using pnbbst::net::Status;
using pnbbst::net::WireReader;

void encode(const Req& r, std::vector<std::uint8_t>& out) {
  switch (r.call) {
    case Call::kGet:
      pnbbst::net::encode_get(out, r.lo);
      break;
    case Call::kInsert:
      pnbbst::net::encode_put(out, r.lo, r.lo);
      break;
    case Call::kErase:
      pnbbst::net::encode_del(out, r.lo);
      break;
    case Call::kScan:
    case Call::kPage:
      pnbbst::net::encode_range(out, r.lo, r.hi, kPageSize);
      break;
  }
}

// Decodes and checks one reply; false on an unexpected status or a
// malformed body (the call then counts as failed).
bool decode(const Req& r, const std::vector<std::uint8_t>& body, Tally& t) {
  WireReader rd(body);
  const auto status = static_cast<Status>(rd.u8());
  switch (r.call) {
    case Call::kGet: {
      if (status == Status::kNotFound) return rd.done();
      if (status != Status::kOk) return false;
      const Key v = rd.i64();
      if (!rd.done()) return false;
      check_get(r, v, t);
      return true;
    }
    case Call::kInsert:
    case Call::kErase: {
      if (status != Status::kOk) return false;
      const bool changed = rd.u8() != 0;
      if (!rd.done()) return false;
      (r.call == Call::kInsert ? t.inserted : t.erased) += changed;
      return true;
    }
    case Call::kScan:
    case Call::kPage: {
      if (status != Status::kOk) return false;
      const std::uint64_t count = rd.u64();
      const std::uint32_t n = rd.u32();
      if (n > kPageSize || count != n) return false;
      std::vector<std::pair<Key, Key>> pairs(n);
      for (auto& [k, v] : pairs) {
        k = rd.i64();
        v = rd.i64();
      }
      if (!rd.done()) return false;
      check_query(r, pairs, t);
      return true;
    }
  }
  return false;
}

}  // namespace

bool send_window(Client& c, const std::vector<Req>& reqs, const Phase& p,
                 Tally& t, WindowTimes& wt, SpanLog* spans) {
  std::vector<std::uint8_t> frames;
  for (const Req& r : reqs) encode(r, frames);
  t.ops += reqs.size();
  const std::uint64_t start = now_ns();
  const bool sent = c.send_bytes(frames.data(), frames.size());
  const std::uint64_t sent_at = now_ns();
  if (!sent) {
    t.failed += reqs.size();
    return false;
  }
  std::array<std::uint64_t, kWindow> ends{};
  std::vector<std::uint8_t> body;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (!c.recv_frame(body)) {
      t.failed += reqs.size() - i;
      return false;
    }
    const std::uint64_t end = now_ns();
    if (i < ends.size()) ends[i] = end;
    if (decode(reqs[i], body, t)) {
      t.done(p, reqs[i].call, end, end - start);
    } else {
      ++t.failed;
    }
  }
  const std::uint64_t last = now_ns();
  wt.send_ns += sent_at - start;
  wt.wait_ns += last - sent_at;
  if (spans) {
    const std::uint64_t window = spans->add(SpanName::kWindow, start, last);
    spans->add(SpanName::kSend, start, sent_at, window);
    for (std::size_t i = 0; i < reqs.size() && i < ends.size(); ++i) {
      spans->add(SpanName::kRequest, start, ends[i], window);
    }
  }
  return true;
}

namespace {

PhaseResult run_windows(Crew& crew, std::vector<Client>& clients,
                        std::vector<CallStream>& streams, double seconds,
                        std::vector<WindowTimes>& times,
                        std::vector<std::unique_ptr<SpanLog>>* spans) {
  return run_phase(crew, seconds, [&](std::size_t i, const Phase& p, Tally& t) {
    SpanLog* log = spans ? (*spans)[i].get() : nullptr;
    std::vector<Req> window(kWindow);
    while (now_ns() < p.t_end) {
      for (Req& r : window) r = streams[i].next();
      if (!send_window(clients[i], window, p, t, times[i], log)) break;
    }
    t.prefix_hash = streams[i].prefix_hash();
  });
}

}  // namespace

std::unique_ptr<pnbbst::net::Server> start_server(ServerMap& map) {
  pnbbst::net::ServerConfig cfg;
  cfg.loops = kServerLoops;
  cfg.scan_threads = 1;
  // Threads inherit their creator's CPUs: the loop threads (and the scan
  // worker, idle here) share slots 1..kServerLoops, where the scheduler
  // gives each busy loop a CPU of its own.
  pin_to_slot(1, kServerLoops);
  auto server = std::make_unique<pnbbst::net::Server>(map, cfg);
  server->start();
  pin_to_slot(0);
  return server;
}

void run_served(const Workload& w, const Options& o, Report& rep) {
  const KeepAwake awake;  // every step below waits on loopback wake-ups
  const std::vector<Key> keys = prefill_keys(w.key_range, o.seed);
  std::unique_ptr<ServerMap> map;
  std::unique_ptr<pnbbst::net::Server> server;
  std::size_t prefilled = 0;
  bool up = true;
  // Set-up brings the service up with its data: map, server, and the
  // prefill as pipelined PUTs, so the server's loop threads allocate
  // every node (see Crew for why the allocating thread matters). One
  // loader per loop, each with an equal share of the keys: prefilled by
  // one loop alone, resident memory read bimodal (21 or 32 MB).
  time_setup(
      o, rep,
      [&] {
        server.reset();
        map.reset();
      },
      [&] {
        map = std::make_unique<ServerMap>(
            pnbbst::RangeSplitter<Key>{0, w.key_range});
        server = start_server(*map);
        std::vector<Client> loaders(kServerLoops);
        up = server->running();
        for (Client& c : loaders) {
          up = up && c.connect("127.0.0.1", server->port());
        }
        if (!up) return;
        const Phase unsliced = Phase::starting_now(0.0);
        Tally t(unsliced);
        WindowTimes wt;
        std::vector<Req> window;
        for (std::size_t l = 0; l < loaders.size(); ++l) {
          for (std::size_t i = l; i < keys.size();) {
            window.clear();
            for (; window.size() < kWindow && i < keys.size();
                 i += loaders.size()) {
              window.push_back({Call::kInsert, keys[i]});
            }
            if (!send_window(loaders[l], window, unsliced, t, wt, nullptr)) {
              break;
            }
          }
        }
        prefilled = t.inserted;
        up = t.failed == 0 && prefilled == keys.size();
      });
  rep.check(up, "server starts on loopback and takes the prefill");
  if (!up) return;

  std::vector<Client> clients(w.mixes.size());
  std::vector<CallStream> streams;
  bool connected = true;
  for (unsigned i = 0; i < clients.size(); ++i) {
    connected = clients[i].connect("127.0.0.1", server->port()) && connected;
    streams.emplace_back(w.mixes[i], w.key_range, o.seed, i, w.pages);
  }
  rep.check(connected, "clients connect");
  if (!connected) return;

  Crew crew(clients.size(), 1 + kServerLoops);
  std::vector<WindowTimes> times(clients.size());
  PhaseResult result{Phase{}, Tally(Phase{})};
  if (!o.trace) {
    result = run_windows(crew, clients, streams, o.seconds, times, nullptr);
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report_phase(result.tally, rep);
  } else {
    result = run_windows(crew, clients, streams, o.seconds / 2, times, nullptr);
    std::vector<std::unique_ptr<SpanLog>> spans;
    for (std::uint32_t i = 0; i < clients.size(); ++i) {
      spans.push_back(std::make_unique<SpanLog>(i));
      times[i] = {};
    }
    const LayerCounters before = LayerCounters::read(*map);
    const pnbbst::net::ServerStats s0 = server->stats();
    const PhaseResult traced =
        run_windows(crew, clients, streams, o.seconds / 2, times, &spans);
    const pnbbst::net::ServerStats s1 = server->stats();
    const LayerCounters after = LayerCounters::read(*map);
    report_layers(before, after, traced.tally, *map, rep);
    report_overhead(result, traced, rep);
    write_trace(o.trace_out, spans, rep);
    WindowTimes sum;
    for (const WindowTimes& wt : times) {
      sum.send_ns += wt.send_ns;
      sum.wait_ns += wt.wait_ns;
    }
    const auto reqs = static_cast<double>(traced.tally.ops);
    rep.metric("client.send_ns_per_req",
               static_cast<double>(sum.send_ns) / reqs, "ns");
    rep.metric("client.wait_ns_per_req",
               static_cast<double>(sum.wait_ns) / reqs, "ns");
    rep.metric("server.shed_share",
               static_cast<double>(s1.shed_responses - s0.shed_responses) /
                   static_cast<double>(s1.ops_served - s0.ops_served),
               "share");
    result.tally.merge(traced.tally);
  }
  rep.add_calls(result.tally.ops, result.tally.failed);

  // Census over the wire: a full-keyspace merged RANGE count.
  const Client::RangeReply census = clients[0].range(0, w.key_range - 1, 0);
  rep.check(census.status == Status::kOk, "census RANGE answered");
  for (Client& c : clients) c.close();
  server->stop();
  check_map(*map, census.count, prefilled, result.tally, o, rep);
}

}  // namespace perfbench

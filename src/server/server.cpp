#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>

#include "ingest/batch_apply.h"
#include "ingest/options.h"
#include "lifecycle/lifetime_manager.h"
#include "mem/arena.h"
#include "obs/adapters.h"
#include "obs/latency.h"
#include "obs/trace.h"

namespace pnbbst::net {

namespace {

// epoll_event.data tags for the two non-connection fds a loop watches.
// Conn pointers are heap-allocated and aligned, so they can never equal
// these small sentinel values.
constexpr std::uint64_t kWakeTag = 0;
constexpr std::uint64_t kListenTag = 1;

bool add_fd(int epoll_fd, int fd, std::uint32_t events, std::uint64_t tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  return ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0;
}

}  // namespace

// Per-connection state; owned by exactly one Loop, so no synchronization.
struct Server::Conn {
  explicit Conn(int f, std::size_t max_frame) : fd(f), reader(max_frame) {}
  int fd;
  FrameReader reader;
  WriteBuffer out;
  bool want_write = false;        // EPOLLOUT currently registered
  bool close_after_flush = false; // protocol violation: drain, then drop
};

struct Server::Loop {
  int epoll_fd = -1;
  int wake_fd = -1;
  bool owns_listener = false;
  std::mutex mu;
  std::vector<int> pending;  // fds accepted elsewhere, to adopt (under mu)
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
};

Server::Server(ServerMap& map, ServerConfig cfg)
    : map_(map), cfg_(std::move(cfg)), executor_(cfg_.scan_threads) {}

Server::~Server() { stop(); }

bool Server::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    std::perror("server: socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "server: bad host %s\n", cfg_.host.c_str());
    stop();
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    std::perror("server: bind/listen");
    stop();
    return false;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &blen) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }

  const unsigned nloops = cfg_.loops == 0 ? 1 : cfg_.loops;
  for (unsigned i = 0; i < nloops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->wake_fd < 0 ||
        !add_fd(loop->epoll_fd, loop->wake_fd, EPOLLIN, kWakeTag)) {
      std::perror("server: epoll/eventfd");
      stop();
      return false;
    }
    loop->owns_listener = (i == 0);
    if (loop->owns_listener &&
        !add_fd(loop->epoll_fd, listen_fd_, EPOLLIN, kListenTag)) {
      std::perror("server: epoll add listener");
      stop();
      return false;
    }
    loops_.push_back(std::move(loop));
  }
  // Telemetry plane: sampling rate is process-global (the plane is), the
  // gauge registrations are per-server (released again in stop()).
  obs::LatencyPlane::global().set_sample_every(cfg_.latency_sample_every);
  register_gauges();
  if (cfg_.metrics_port && !start_metrics_listener()) {
    stop();
    return false;
  }

  running_.store(true, std::memory_order_release);
  threads_.reserve(loops_.size());
  for (auto& loop : loops_) {
    threads_.emplace_back([this, l = loop.get()] { loop_main(*l); });
  }
  if (metrics_fd_ >= 0) {
    metrics_thread_ = std::thread([this] { metrics_main(); });
  }
  return true;
}

void Server::stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    for (auto& loop : loops_) {
      const std::uint64_t one = 1;
      [[maybe_unused]] ssize_t n =
          ::write(loop->wake_fd, &one, sizeof(one));
    }
    for (auto& t : threads_) t.join();
    threads_.clear();
  }
  if (metrics_thread_.joinable()) metrics_thread_.join();
  if (metrics_fd_ >= 0) {
    ::close(metrics_fd_);
    metrics_fd_ = -1;
  }
  // Release this server's registry collectors: their callbacks capture
  // `this` and the map, which a later test/server cycle would dangle.
  obs_reg_.reset();
  for (auto& loop : loops_) {
    for (auto& [fd, conn] : loop->conns) {
      ::close(fd);
      conns_open_.fetch_sub(1, std::memory_order_relaxed);
    }
    loop->conns.clear();
    if (loop->wake_fd >= 0) ::close(loop->wake_fd);
    if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
  }
  loops_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

ServerStats Server::stats() const noexcept {
  ServerStats s;
  s.ops_served = ops_served_.load(std::memory_order_relaxed);
  s.conns_accepted = conns_accepted_.load(std::memory_order_relaxed);
  s.conns_open = conns_open_.load(std::memory_order_relaxed);
  s.batch_ops_applied = batch_ops_applied_.load(std::memory_order_relaxed);
  s.shed_responses = shed_responses_.load(std::memory_order_relaxed);
  s.range_queries = range_queries_.load(std::memory_order_relaxed);
  s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  const auto req = [this](Opcode op) {
    return req_counts_[static_cast<std::size_t>(op)].load(
        std::memory_order_relaxed);
  };
  s.req_get = req(Opcode::kGet);
  s.req_put = req(Opcode::kPut);
  s.req_del = req(Opcode::kDel);
  s.req_batch = req(Opcode::kBatch);
  s.req_range = req(Opcode::kRange);
  s.req_metrics = req(Opcode::kMetrics);
  return s;
}

// --- /metrics HTTP listener ------------------------------------------------

bool Server::start_metrics_listener() {
  metrics_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (metrics_fd_ < 0) {
    std::perror("server: metrics socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(metrics_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(*cfg_.metrics_port);
  if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1 ||
      ::bind(metrics_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(metrics_fd_, 16) != 0) {
    std::perror("server: metrics bind/listen");
    ::close(metrics_fd_);
    metrics_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(metrics_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &blen) == 0) {
    metrics_port_ = ntohs(bound.sin_port);
  }
  return true;
}

// One-request-per-connection HTTP responder, deliberately minimal: a
// scrape is GET /metrics every few seconds from one collector, so a
// single blocking thread with poll()-bounded waits is plenty — and it
// keeps the epoll loops untouched by exposition work. Not a general
// HTTP server: no keep-alive, no chunking, 1 KiB request cap.
void Server::metrics_main() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{metrics_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 100);  // 100 ms running_ re-check
    if (pr <= 0) continue;
    const int fd = ::accept4(metrics_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    req_counts_[static_cast<std::size_t>(Opcode::kMetrics)].fetch_add(
        1, std::memory_order_relaxed);
    timeval tv{};
    tv.tv_sec = 2;  // bound a stalled client; scrapers are local/fast
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char req[1024];
    std::size_t got = 0;
    // Read until the header terminator (scrape requests have no body).
    while (got < sizeof(req) - 1) {
      const ssize_t n = ::recv(fd, req + got, sizeof(req) - 1 - got, 0);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
      req[got] = '\0';
      if (std::strstr(req, "\r\n\r\n") != nullptr ||
          std::strstr(req, "\n\n") != nullptr) {
        break;
      }
    }
    req[got] = '\0';
    std::string resp;
    if (std::strncmp(req, "GET /metrics", 12) == 0) {
      const std::string body =
          obs::MetricsRegistry::global().prometheus_text();
      resp = "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; "
             "charset=utf-8\r\nContent-Length: " +
             std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
             body;
    } else {
      resp = "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n"
             "Connection: close\r\n\r\n";
    }
    std::size_t sent = 0;
    while (sent < resp.size()) {
      const ssize_t n = ::send(fd, resp.data() + sent, resp.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::close(fd);
  }
}

// --- Registry wiring -------------------------------------------------------

void Server::register_gauges() {
  auto& reg = obs::MetricsRegistry::global();
  char lbuf[48];
  std::snprintf(lbuf, sizeof(lbuf), "port=\"%u\"",
                static_cast<unsigned>(bound_port_));
  const std::string port_label = lbuf;

  // Server-side counters, one collector for the whole family set.
  reg.add_collector(
      obs_reg_, "pnb_server_ops_served_total", obs::MetricType::kCounter,
      "Frames answered (all opcodes)",
      [this, port_label](std::vector<obs::Sample>& out) {
        const ServerStats s = stats();
        out.push_back({"pnb_server_ops_served_total", port_label,
                       static_cast<double>(s.ops_served)});
        out.push_back({"pnb_server_conns_accepted_total", port_label,
                       static_cast<double>(s.conns_accepted)});
        out.push_back({"pnb_server_conns_open", port_label,
                       static_cast<double>(s.conns_open)});
        out.push_back({"pnb_server_batch_ops_applied_total", port_label,
                       static_cast<double>(s.batch_ops_applied)});
        out.push_back({"pnb_server_shed_responses_total", port_label,
                       static_cast<double>(s.shed_responses)});
        out.push_back({"pnb_server_range_queries_total", port_label,
                       static_cast<double>(s.range_queries)});
        out.push_back({"pnb_server_bad_frames_total", port_label,
                       static_cast<double>(s.bad_frames)});
        const std::pair<const char*, std::uint64_t> reqs[] = {
            {"get", s.req_get},     {"put", s.req_put},
            {"del", s.req_del},     {"batch", s.req_batch},
            {"range", s.req_range}, {"metrics", s.req_metrics},
        };
        for (const auto& [op, v] : reqs) {
          out.push_back({"pnb_server_requests_total",
                         port_label + ",op=\"" + op + "\"",
                         static_cast<double>(v)});
        }
      });
  reg.declare("pnb_server_conns_accepted_total", obs::MetricType::kCounter,
              "Connections accepted since start");
  reg.declare("pnb_server_conns_open", obs::MetricType::kGauge,
              "Currently open connections");
  reg.declare("pnb_server_batch_ops_applied_total",
              obs::MetricType::kCounter, "BATCH ops applied after dedup");
  reg.declare("pnb_server_shed_responses_total", obs::MetricType::kCounter,
              "kRetry frames sent (overload shedding)");
  reg.declare("pnb_server_range_queries_total", obs::MetricType::kCounter,
              "RANGE frames served");
  reg.declare("pnb_server_bad_frames_total", obs::MetricType::kCounter,
              "Malformed frames answered kBadRequest");
  reg.declare("pnb_server_requests_total", obs::MetricType::kCounter,
              "Frames decoded per opcode");

  // The serving map: per-shard op/size gauges, lifecycle —
  // plus the aggregate engine family (CountingOpStats is enabled on
  // ServerMap precisely so these exist on the serving path).
  obs::register_sharded_map(reg, obs_reg_, map_, port_label);

  // Process-lifetime subjects register exactly once (idempotent across
  // serial server instances). The subjects and the registry are
  // immortal, so the Registration is only released at static
  // destruction — never while a server could scrape them.
  static const obs::Registration process_wide = [&reg] {
    obs::Registration keep;
    obs::register_arena(reg, keep, mem::ArenaDomain::shared(),
                        "domain=\"shared\"");
    for (std::size_t i = 0; i < mem::ArenaDomain::kPooledDomains; ++i) {
      char dbuf[32];
      std::snprintf(dbuf, sizeof(dbuf), "domain=\"pooled%zu\"", i);
      obs::register_arena(reg, keep, mem::ArenaDomain::pooled(i), dbuf);
    }
    obs::register_latency(reg, keep, obs::LatencyPlane::global(), "");
    return keep;
  }();
}

void Server::loop_main(Loop& loop) {
  epoll_event events[64];
  while (running_.load(std::memory_order_acquire)) {
    // The 100 ms timeout is a belt over the eventfd wake: a missed wake
    // costs one tick of shutdown latency, never a hang.
    const int n = ::epoll_wait(loop.epoll_fd, events, 64, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        std::uint64_t drain = 0;
        [[maybe_unused]] ssize_t r =
            ::read(loop.wake_fd, &drain, sizeof(drain));
        adopt_pending(loop);
        continue;
      }
      if (tag == kListenTag) {
        handle_accepts(loop);
        continue;
      }
      // Each registered fd yields at most one event per wait, and no
      // handler closes a conn other than its own, so `c` is alive here.
      // It may die inside handle_readable though — re-find by the saved
      // fd (never through c) before the EPOLLOUT leg.
      auto* c = reinterpret_cast<Conn*>(static_cast<std::uintptr_t>(tag));
      const int fd = c->fd;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        close_conn(loop, *c);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) handle_readable(loop, *c);
      const auto it = loop.conns.find(fd);
      if (it != loop.conns.end() && it->second.get() == c &&
          (events[i].events & EPOLLOUT) != 0) {
        flush_writes(loop, *c);
      }
    }
  }
}

void Server::handle_accepts(Loop& loop) {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays registered
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conns_accepted_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t target =
        next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    Loop& dst = *loops_[target];
    if (&dst == &loop) {
      auto conn = std::make_unique<Conn>(fd, cfg_.max_frame_bytes);
      if (!add_fd(loop.epoll_fd, fd, EPOLLIN,
                  reinterpret_cast<std::uintptr_t>(conn.get()))) {
        ::close(fd);
        continue;
      }
      conns_open_.fetch_add(1, std::memory_order_relaxed);
      loop.conns.emplace(fd, std::move(conn));
    } else {
      {
        std::lock_guard<std::mutex> lk(dst.mu);
        dst.pending.push_back(fd);
      }
      const std::uint64_t one64 = 1;
      [[maybe_unused]] ssize_t r =
          ::write(dst.wake_fd, &one64, sizeof(one64));
    }
  }
}

void Server::adopt_pending(Loop& loop) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lk(loop.mu);
    fds.swap(loop.pending);
  }
  for (int fd : fds) {
    auto conn = std::make_unique<Conn>(fd, cfg_.max_frame_bytes);
    if (!add_fd(loop.epoll_fd, fd, EPOLLIN,
                reinterpret_cast<std::uintptr_t>(conn.get()))) {
      ::close(fd);
      continue;
    }
    conns_open_.fetch_add(1, std::memory_order_relaxed);
    loop.conns.emplace(fd, std::move(conn));
  }
}

void Server::handle_readable(Loop& loop, Conn& c) {
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.reader.feed(buf, static_cast<std::size_t>(n));
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n == 0) {  // orderly shutdown by the peer
      close_conn(loop, c);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(loop, c);
    return;
  }
  // Decode every complete frame this burst delivered; responses coalesce
  // in c.out and leave in one flush below.
  std::vector<std::uint8_t> body;
  while (!c.close_after_flush) {
    const FrameReader::Next r = c.reader.next(body);
    if (r == FrameReader::Next::kFrame) {
      handle_frame(c, body);
      continue;
    }
    if (r == FrameReader::Next::kNeedMore) break;
    // kTooLarge: reject and drop — the stream offset is unusable.
    bad_frames_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t at = c.out.begin_frame();
    WireWriter w(c.out.raw());
    w.u8(static_cast<std::uint8_t>(Status::kBadRequest));
    c.out.end_frame(at);
    c.close_after_flush = true;
  }
  flush_writes(loop, c);
}

void Server::handle_frame(Conn& c, const std::vector<std::uint8_t>& body) {
  WireReader req(body);
  const auto opcode = static_cast<Opcode>(req.u8());
  const std::size_t at = c.out.begin_frame();
  WireWriter w(c.out.raw());
  ops_served_.fetch_add(1, std::memory_order_relaxed);
  if (static_cast<std::size_t>(opcode) < std::size(req_counts_)) {
    req_counts_[static_cast<std::size_t>(opcode)].fetch_add(
        1, std::memory_order_relaxed);
  }
  // Latency plane: t0 == 0 for the (sample_every-1)/sample_every ops
  // that are not sampled; finish() is then a no-op. Malformed frames
  // fall through without recording — the distribution is of served ops.
  auto& lat = obs::LatencyPlane::global();
  const std::uint64_t t0 = lat.maybe_start();

  switch (opcode) {
    case Opcode::kGet: {
      const std::int64_t key = req.i64();
      if (!req.done()) break;
      const auto v = map_.get(key);
      if (v) {
        w.u8(static_cast<std::uint8_t>(Status::kOk));
        w.i64(*v);
      } else {
        w.u8(static_cast<std::uint8_t>(Status::kNotFound));
      }
      c.out.end_frame(at);
      lat.finish(obs::OpClass::kFind, t0);
      return;
    }
    case Opcode::kPut: {
      const std::int64_t key = req.i64();
      const std::int64_t value = req.i64();
      if (!req.done()) break;
      const bool added = map_.insert(key, value);
      w.u8(static_cast<std::uint8_t>(Status::kOk));
      w.u8(added ? 1 : 0);
      c.out.end_frame(at);
      lat.finish(obs::OpClass::kInsert, t0);
      return;
    }
    case Opcode::kDel: {
      const std::int64_t key = req.i64();
      if (!req.done()) break;
      const bool removed = map_.erase(key);
      w.u8(static_cast<std::uint8_t>(Status::kOk));
      w.u8(removed ? 1 : 0);
      c.out.end_frame(at);
      lat.finish(obs::OpClass::kErase, t0);
      return;
    }
    case Opcode::kBatch: {
      const std::uint32_t n = req.u32();
      if (req.remaining() != static_cast<std::size_t>(n) * kBatchEntryBytes) {
        break;
      }
      std::vector<ServerMap::batch_op> ops;
      ops.reserve(n);
      bool bad = false;
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint8_t kind = req.u8();
        const std::int64_t key = req.i64();
        const std::int64_t value = req.i64();
        if (kind > 1) {
          bad = true;
          break;
        }
        ops.push_back(kind == 0 ? ServerMap::batch_op::insert(key, value)
                                : ServerMap::batch_op::erase(key));
      }
      if (bad || !req.done()) break;
      // Overload shed, after validation so a malformed frame is still a
      // kBadRequest: while snapshot leases hold more retired-generation
      // bytes than the watermark, bounce the whole batch untouched and
      // let the client retry. Point ops are never shed.
      if (cfg_.shed_watermark) {
        const std::size_t retired = map_.retired_bytes();
        if (retired > *cfg_.shed_watermark) {
          shed_responses_.fetch_add(1, std::memory_order_relaxed);
          obs::trace_event(obs::TraceKind::kAdmissionShed, retired);
          w.u8(static_cast<std::uint8_t>(Status::kRetry));
          w.u64(n);
          c.out.end_frame(at);
          return;
        }
      }
      const ingest::BatchResult r = map_.apply_batch(
          std::move(ops), ingest::IngestOptions(cfg_.scan_threads, executor_));
      batch_ops_applied_.fetch_add(r.applied, std::memory_order_relaxed);
      w.u8(static_cast<std::uint8_t>(Status::kOk));
      w.u64(r.applied);
      w.u64(r.inserted);
      w.u64(r.erased);
      c.out.end_frame(at);
      lat.finish(obs::OpClass::kBatch, t0);
      return;
    }
    case Opcode::kRange: {
      const std::int64_t lo = req.i64();
      const std::int64_t hi = req.i64();
      std::uint32_t limit = req.u32();
      if (!req.done()) break;
      range_queries_.fetch_add(1, std::memory_order_relaxed);
      w.u8(static_cast<std::uint8_t>(Status::kOk));
      if (limit == 0) {
        // Pure merged count: per-shard snapshot counts fan out across
        // the server's scan executor.
        const std::size_t count =
            lo > hi ? 0
                    : map_.parallel_range_count(
                          lo, hi,
                          scan::ParallelScanOptions(cfg_.scan_threads,
                                                    executor_));
        w.u64(count);
        w.u32(0);
      } else {
        // Paired responses do work bounded by `limit` (merged
        // range_first), never by the queried key span — a wire client
        // must not be able to ask for an unbounded materialization.
        if (limit > cfg_.range_pair_cap) limit = cfg_.range_pair_cap;
        const auto pairs =
            lo > hi ? std::vector<std::pair<std::int64_t, std::int64_t>>{}
                    : map_.range_first(lo, hi, limit);
        w.u64(pairs.size());
        w.u32(static_cast<std::uint32_t>(pairs.size()));
        for (const auto& [k, v] : pairs) {
          w.i64(k);
          w.i64(v);
        }
      }
      c.out.end_frame(at);
      lat.finish(obs::OpClass::kScan, t0);
      return;
    }
    case Opcode::kMetrics: {
      if (!req.done()) break;
      // Same payload as GET /metrics, over the binary transport (so
      // loadgen/Client can scrape without a second socket family).
      const std::string text =
          obs::MetricsRegistry::global().prometheus_text();
      w.u8(static_cast<std::uint8_t>(Status::kOk));
      w.u32(static_cast<std::uint32_t>(text.size()));
      for (const char ch : text) {
        w.u8(static_cast<std::uint8_t>(ch));
      }
      c.out.end_frame(at);
      return;
    }
    default:
      break;
  }

  // Malformed payload or unknown opcode: answer kBadRequest and drop the
  // connection once the response drains. Any partial response bytes the
  // switch wrote are discarded by rewinding to the frame start.
  bad_frames_.fetch_add(1, std::memory_order_relaxed);
  c.out.raw().resize(at + kLenPrefixBytes);
  WireWriter werr(c.out.raw());
  werr.u8(static_cast<std::uint8_t>(Status::kBadRequest));
  c.out.end_frame(at);
  c.close_after_flush = true;
}

void Server::flush_writes(Loop& loop, Conn& c) {
  while (!c.out.empty()) {
    const ssize_t n =
        ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c.out.consumed(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!c.want_write) {
        c.want_write = true;
        update_write_interest(loop, c);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    close_conn(loop, c);
    return;
  }
  if (c.close_after_flush) {
    close_conn(loop, c);
    return;
  }
  if (c.want_write) {
    c.want_write = false;
    update_write_interest(loop, c);
  }
}

void Server::update_write_interest(Loop& loop, Conn& c) {
  epoll_event ev{};
  ev.events = EPOLLIN | (c.want_write ? EPOLLOUT : 0u);
  ev.data.u64 = reinterpret_cast<std::uintptr_t>(&c);
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
}

void Server::close_conn(Loop& loop, Conn& c) {
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  conns_open_.fetch_sub(1, std::memory_order_relaxed);
  loop.conns.erase(c.fd);  // destroys c; do not touch it afterwards
}

}  // namespace pnbbst::net

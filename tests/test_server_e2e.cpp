// Loopback end-to-end tests for the network service layer: a real
// Server (epoll reactor, ephemeral port) serving a real ShardedPnbMap,
// driven through real sockets by the blocking Client. Named WITHOUT the
// stress-suite keywords on purpose: this suite carries the `unit` label
// so every CI job (gcc/clang Release, ASan+UBSan, TSan) runs the full
// socket path.
//
// Covers the whole op surface (GET/PUT/DEL/BATCH/RANGE/METRICS),
// pipelining, malformed/garbage/oversized input (answer kBadRequest,
// then disconnect — never crash), and the overload-shedding contract:
// with retired bytes pinned over the watermark, BATCH bounces with
// kRetry while point reads keep flowing on the same event loops.
#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "loadgen/client.h"

namespace pnbbst::net {
namespace {

constexpr std::int64_t kKeySpace = 1 << 16;

class ServerE2E : public ::testing::Test {
 protected:
  // loops=2 exercises cross-loop connection adoption (accepts land on
  // loop 0, odd connections migrate via eventfd); scan_threads=2 keeps
  // the RANGE/BATCH executor fan-out real but tiny (CI runs 1-2 cores).
  void start(ServerConfig cfg = {}) {
    cfg.loops = 2;
    cfg.scan_threads = 2;
    server_ = std::make_unique<Server>(map_, cfg);
    ASSERT_TRUE(server_->start());
    ASSERT_NE(server_->port(), 0);
  }

  Client connect() {
    Client c;
    EXPECT_TRUE(c.connect("127.0.0.1", server_->port()));
    return c;
  }

  ServerMap map_{RangeSplitter<std::int64_t>{0, kKeySpace}};
  std::unique_ptr<Server> server_;
};

TEST_F(ServerE2E, PointOpsRoundTrip) {
  start();
  Client c = connect();

  EXPECT_EQ(c.get(7).status, Status::kNotFound);

  auto put = c.put(7, 70);
  EXPECT_EQ(put.status, Status::kOk);
  EXPECT_TRUE(put.changed);
  // Insert-if-absent: a second PUT of the same key is a no-op ack.
  put = c.put(7, 71);
  EXPECT_EQ(put.status, Status::kOk);
  EXPECT_FALSE(put.changed);

  auto got = c.get(7);
  EXPECT_EQ(got.status, Status::kOk);
  EXPECT_EQ(got.value, 70);

  auto del = c.del(7);
  EXPECT_EQ(del.status, Status::kOk);
  EXPECT_TRUE(del.changed);
  del = c.del(7);
  EXPECT_EQ(del.status, Status::kOk);
  EXPECT_FALSE(del.changed);
  EXPECT_EQ(c.get(7).status, Status::kNotFound);
}

TEST_F(ServerE2E, BatchAppliesAndAcksCounts) {
  start();
  Client c = connect();

  std::vector<BatchEntry> ops;
  for (std::int64_t k = 0; k < 500; ++k) {
    ops.push_back(BatchEntry::insert(k, k * 3));
  }
  auto br = c.batch(ops);
  EXPECT_EQ(br.status, Status::kOk);
  EXPECT_EQ(br.inserted, 500u);
  EXPECT_EQ(br.erased, 0u);

  // Mixed batch: erase half, insert past the end.
  ops.clear();
  for (std::int64_t k = 0; k < 250; ++k) ops.push_back(BatchEntry::erase(k));
  ops.push_back(BatchEntry::insert(1000, -1));
  br = c.batch(ops);
  EXPECT_EQ(br.status, Status::kOk);
  EXPECT_EQ(br.erased, 250u);
  EXPECT_EQ(br.inserted, 1u);

  EXPECT_EQ(c.get(100).status, Status::kNotFound);
  EXPECT_EQ(c.get(300).value, 900);
  EXPECT_EQ(c.get(1000).value, -1);
  // The batch went through the map, not a server-side shadow.
  EXPECT_EQ(map_.get_or(300, 0), 900);
}

TEST_F(ServerE2E, RangeCountAndPairsAcrossShards) {
  start();
  Client c = connect();

  // Keys straddling all 8 range shards of [0, 2^16).
  std::vector<BatchEntry> ops;
  for (std::int64_t k = 0; k < kKeySpace; k += 64) {
    ops.push_back(BatchEntry::insert(k, k + 1));
  }
  ASSERT_EQ(c.batch(ops).status, Status::kOk);

  // limit == 0: pure merged count over the whole keyspace.
  auto rr = c.range(0, kKeySpace, 0);
  EXPECT_EQ(rr.status, Status::kOk);
  EXPECT_EQ(rr.count, static_cast<std::uint64_t>(kKeySpace / 64));
  EXPECT_TRUE(rr.pairs.empty());

  // limit > 0: first-n merged pairs, ascending, values intact.
  rr = c.range(1000, kKeySpace, 5);
  EXPECT_EQ(rr.status, Status::kOk);
  ASSERT_EQ(rr.pairs.size(), 5u);
  EXPECT_EQ(rr.count, 5u);
  std::int64_t expect = 1024;  // first multiple of 64 >= 1000
  for (const auto& [k, v] : rr.pairs) {
    EXPECT_EQ(k, expect);
    EXPECT_EQ(v, expect + 1);
    expect += 64;
  }

  // Empty and inverted windows are well-formed zero answers.
  rr = c.range(1, 63, 8);
  EXPECT_EQ(rr.status, Status::kOk);
  EXPECT_TRUE(rr.pairs.empty());
  rr = c.range(500, 100, 0);
  EXPECT_EQ(rr.status, Status::kOk);
  EXPECT_EQ(rr.count, 0u);
}

TEST_F(ServerE2E, RangePairCapBoundsResponses) {
  ServerConfig cfg;
  cfg.range_pair_cap = 10;
  start(cfg);
  Client c = connect();

  std::vector<BatchEntry> ops;
  for (std::int64_t k = 0; k < 100; ++k) {
    ops.push_back(BatchEntry::insert(k, k));
  }
  ASSERT_EQ(c.batch(ops).status, Status::kOk);

  // The client asks for 1000 pairs; the server's cap wins.
  auto rr = c.range(0, kKeySpace, 1000);
  EXPECT_EQ(rr.status, Status::kOk);
  EXPECT_EQ(rr.pairs.size(), 10u);
}

// The server counters and the map's admission and lifecycle gauges: the
// sources the /metrics collectors read.
TEST_F(ServerE2E, StatsReportServerAndMapGauges) {
  start();
  Client c = connect();
  ASSERT_EQ(c.put(1, 1).status, Status::kOk);
  ASSERT_EQ(c.range(0, 100, 0).status, Status::kOk);
  ASSERT_EQ(c.batch({BatchEntry::insert(2, 2)}).status, Status::kOk);

  const ServerStats ss = server_->stats();
  EXPECT_GE(ss.ops_served, 3u);
  EXPECT_GE(ss.conns_accepted, 1u);
  EXPECT_GE(ss.conns_open, 1u);
  EXPECT_EQ(ss.batch_ops_applied, 1u);
  EXPECT_EQ(map_.admission_stats().admitted, 1u);
  EXPECT_EQ(map_.admission_stats().deferred, 0u);
  EXPECT_EQ(ss.shed_responses, 0u);
  EXPECT_EQ(ss.range_queries, 1u);
  EXPECT_EQ(map_.retired_bytes(), 0u);
}

TEST_F(ServerE2E, StatsReportPerOpcodeRequestCounters) {
  start();
  Client c = connect();
  ASSERT_EQ(c.put(1, 1).status, Status::kOk);
  ASSERT_EQ(c.get(1).status, Status::kOk);
  ASSERT_EQ(c.get(2).status, Status::kNotFound);
  ASSERT_EQ(c.del(1).status, Status::kOk);
  ASSERT_EQ(c.batch({BatchEntry::insert(3, 3)}).status, Status::kOk);
  ASSERT_EQ(c.range(0, 100, 0).status, Status::kOk);

  ServerStats ss = server_->stats();
  EXPECT_EQ(ss.req_get, 2u);
  EXPECT_EQ(ss.req_put, 1u);
  EXPECT_EQ(ss.req_del, 1u);
  EXPECT_EQ(ss.req_batch, 1u);
  EXPECT_EQ(ss.req_range, 1u);
  EXPECT_EQ(ss.req_metrics, 0u);
  EXPECT_EQ(map_.admission_stats().shed(), 0u);
  // The METRICS request is counted before its reply is built.
  ASSERT_EQ(c.metrics().status, Status::kOk);
  ss = server_->stats();
  EXPECT_EQ(ss.req_metrics, 1u);
  EXPECT_EQ(ss.req_get, 2u);
}

TEST_F(ServerE2E, MetricsOpcodeServesPrometheusText) {
  start();
  Client c = connect();
  ASSERT_EQ(c.put(1, 1).status, Status::kOk);

  const auto mr = c.metrics();
  ASSERT_EQ(mr.status, Status::kOk);
  ASSERT_FALSE(mr.text.empty());
  // All six gauge families are present (acceptance criterion), carrying
  // this server's port label.
  for (const char* family :
       {"pnb_engine_", "pnb_arena_", "pnb_lifecycle_", "pnb_admission_",
        "pnb_shard_", "pnb_server_"}) {
    EXPECT_NE(mr.text.find(family), std::string::npos) << family;
  }
  char port_label[32];
  std::snprintf(port_label, sizeof(port_label), "port=\"%u\"",
                server_->port());
  EXPECT_NE(mr.text.find(port_label), std::string::npos);
  EXPECT_NE(mr.text.find("# TYPE pnb_shard_size gauge"),
            std::string::npos);

  // A second server on another port must not double-register families:
  // its samples carry its own port label and vanish after stop().
  ServerMap map2{RangeSplitter<std::int64_t>{0, kKeySpace}};
  {
    auto server2 = std::make_unique<Server>(map2, ServerConfig{});
    ASSERT_TRUE(server2->start());
    char label2[32];
    std::snprintf(label2, sizeof(label2), "port=\"%u\"", server2->port());
    const auto mr2 = c.metrics();
    ASSERT_EQ(mr2.status, Status::kOk);
    EXPECT_NE(mr2.text.find(label2), std::string::npos);
    server2->stop();
    const auto mr3 = c.metrics();
    EXPECT_EQ(mr3.text.find(label2), std::string::npos);
  }
}

TEST_F(ServerE2E, HttpMetricsListenerServesScrape) {
  ServerConfig cfg;
  cfg.metrics_port = 0;  // ephemeral
  start(cfg);
  ASSERT_NE(server_->metrics_port(), 0);
  Client c = connect();
  ASSERT_EQ(c.put(1, 1).status, Status::kOk);

  // Raw HTTP/1.1 over the Client's socket helpers: the listener speaks
  // just enough HTTP for a Prometheus scraper.
  Client http;
  ASSERT_TRUE(http.connect("127.0.0.1", server_->metrics_port()));
  const char req[] = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_TRUE(http.send_bytes(reinterpret_cast<const std::uint8_t*>(req),
                              sizeof(req) - 1));
  const std::string page = http.recv_all();
  EXPECT_NE(page.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(page.find("text/plain; version=0.0.4"), std::string::npos);
  for (const char* family :
       {"pnb_engine_", "pnb_arena_", "pnb_lifecycle_", "pnb_admission_",
        "pnb_shard_", "pnb_server_"}) {
    EXPECT_NE(page.find(family), std::string::npos) << family;
  }
  // The scrape itself is counted.
  EXPECT_GE(server_->stats().req_metrics, 1u);

  // Non-/metrics paths 404 without disturbing the server.
  Client other;
  ASSERT_TRUE(other.connect("127.0.0.1", server_->metrics_port()));
  const char bad[] = "GET /nope HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(other.send_bytes(reinterpret_cast<const std::uint8_t*>(bad),
                               sizeof(bad) - 1));
  EXPECT_NE(other.recv_all().find("404"), std::string::npos);
  EXPECT_EQ(c.get(1).status, Status::kOk);
}

TEST_F(ServerE2E, PipelinedRequestsAnswerInOrder) {
  start();
  Client c = connect();
  std::vector<BatchEntry> ops;
  for (std::int64_t k = 0; k < 32; ++k) {
    ops.push_back(BatchEntry::insert(k, k * 10));
  }
  ASSERT_EQ(c.batch(ops).status, Status::kOk);

  // 32 GETs in one send; responses must come back in request order.
  std::vector<std::uint8_t> wire;
  for (std::int64_t k = 0; k < 32; ++k) encode_get(wire, k);
  ASSERT_TRUE(c.send_bytes(wire.data(), wire.size()));
  std::vector<std::uint8_t> body;
  for (std::int64_t k = 0; k < 32; ++k) {
    ASSERT_TRUE(c.recv_frame(body));
    WireReader r(body);
    ASSERT_EQ(r.u8(), static_cast<std::uint8_t>(Status::kOk));
    EXPECT_EQ(r.i64(), k * 10);
    EXPECT_TRUE(r.done());
  }
}

TEST_F(ServerE2E, ManyConnectionsAcrossBothLoops) {
  start();
  std::vector<Client> clients;
  for (int i = 0; i < 8; ++i) clients.push_back(connect());
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(clients[static_cast<std::size_t>(i)].put(i, i).status,
              Status::kOk);
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(clients[static_cast<std::size_t>(i)].get(i).value, i);
  }
  EXPECT_EQ(server_->stats().conns_open, 8u);
  clients.clear();
  // Close is observed by the reactor asynchronously.
  for (int spin = 0; spin < 500 && server_->stats().conns_open != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server_->stats().conns_open, 0u);
}

TEST_F(ServerE2E, MalformedPayloadAnswersBadRequestThenCloses) {
  start();
  Client c = connect();

  // GET with a truncated key (4 of 8 bytes): parse fails server-side.
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  w.u8(static_cast<std::uint8_t>(Opcode::kGet));
  w.u32(0xDEAD);
  std::vector<std::uint8_t> wire;
  append_frame(wire, body);
  ASSERT_TRUE(c.send_bytes(wire.data(), wire.size()));

  std::vector<std::uint8_t> resp;
  ASSERT_TRUE(c.recv_frame(resp));
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0], static_cast<std::uint8_t>(Status::kBadRequest));
  // ...and then the server hangs up.
  EXPECT_FALSE(c.recv_frame(resp));

  // The server survives: a fresh connection works.
  Client c2 = connect();
  EXPECT_EQ(c2.put(1, 1).status, Status::kOk);
  EXPECT_GE(server_->stats().bad_frames, 1u);
}

// 0x06 is the retired STATS opcode: it must stay an unknown opcode.
TEST_F(ServerE2E, UnknownOpcodeAnswersBadRequestThenCloses) {
  start();
  for (const std::vector<std::uint8_t>& body :
       {std::vector<std::uint8_t>{0x77, 0x01, 0x02},
        std::vector<std::uint8_t>{0x06}}) {
    Client c = connect();
    std::vector<std::uint8_t> wire;
    append_frame(wire, body);
    ASSERT_TRUE(c.send_bytes(wire.data(), wire.size()));
    std::vector<std::uint8_t> resp;
    ASSERT_TRUE(c.recv_frame(resp));
    EXPECT_EQ(resp[0], static_cast<std::uint8_t>(Status::kBadRequest));
    EXPECT_FALSE(c.recv_frame(resp));
  }
  EXPECT_EQ(server_->stats().bad_frames, 2u);
}

TEST_F(ServerE2E, OversizedFramePrefixDisconnects) {
  start();
  Client c = connect();
  // 4 bytes claiming a 4 GiB body. The server must reject from the
  // prefix alone — no allocation, no waiting for the body.
  const std::uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(c.send_bytes(huge, sizeof(huge)));
  std::vector<std::uint8_t> resp;
  ASSERT_TRUE(c.recv_frame(resp));
  EXPECT_EQ(resp[0], static_cast<std::uint8_t>(Status::kBadRequest));
  EXPECT_FALSE(c.recv_frame(resp));
  EXPECT_GE(server_->stats().bad_frames, 1u);
}

TEST_F(ServerE2E, TrailingGarbageAfterValidOpDisconnects) {
  start();
  Client c = connect();
  // A well-formed PUT followed by a garbage-body frame: the PUT must be
  // answered normally before the connection is dropped for the garbage.
  std::vector<std::uint8_t> wire;
  encode_put(wire, 5, 50);
  append_frame(wire, {0x00, 0xFE, 0xFD, 0xFC, 0xFB});
  ASSERT_TRUE(c.send_bytes(wire.data(), wire.size()));
  std::vector<std::uint8_t> resp;
  ASSERT_TRUE(c.recv_frame(resp));
  EXPECT_EQ(resp[0], static_cast<std::uint8_t>(Status::kOk));
  ASSERT_TRUE(c.recv_frame(resp));
  EXPECT_EQ(resp[0], static_cast<std::uint8_t>(Status::kBadRequest));
  EXPECT_FALSE(c.recv_frame(resp));
  EXPECT_EQ(map_.get_or(5, 0), 50);  // the valid op landed
}

TEST_F(ServerE2E, ShedsBatchesWithRetryWhileReadsKeepFlowing) {
  ServerConfig cfg;
  cfg.shed_watermark = 1;  // any pinned retired generation trips shedding
  start(cfg);
  Client c = connect();

  std::vector<BatchEntry> ops;
  for (std::int64_t k = 0; k < 200; ++k) {
    ops.push_back(BatchEntry::insert(k, k));
  }
  ASSERT_EQ(c.batch(ops).status, Status::kOk);  // below watermark: admitted

  // Pin retired memory over the watermark: a held snapshot keeps the
  // pre-reshard generation alive, exactly the overload the watermark
  // models (PR-5 lifecycle).
  auto snap = map_.snapshot();
  map_.reshard(RangeSplitter<std::int64_t>{0, kKeySpace * 2});
  ASSERT_GT(map_.retired_bytes(), 1u);

  // BATCH now sheds: protocol-level kRetry carrying the deferred count,
  // map untouched.
  auto br = c.batch({BatchEntry::insert(5000, 1), BatchEntry::insert(5001, 1)});
  EXPECT_EQ(br.status, Status::kRetry);
  EXPECT_EQ(br.deferred, 2u);
  EXPECT_EQ(c.get(5000).status, Status::kNotFound);

  // Point ops never shed — same connection, same loops, still served.
  EXPECT_EQ(c.get(100).value, 100);
  EXPECT_EQ(c.put(6000, 6).status, Status::kOk);
  EXPECT_EQ(c.get(6000).value, 6);

  // The shed shows up on both gauge surfaces the /metrics collectors
  // read: server stats and the map's admission counters (satellite:
  // admission outcome gauges).
  EXPECT_GE(server_->stats().shed_responses, 1u);
  EXPECT_EQ(map_.admission_stats().deferred, 1u);
  EXPECT_EQ(map_.admission_stats().shed(), 1u);

  // Reclamation (the snapshot drops) reopens admission; the retry the
  // protocol asked for now succeeds.
  { auto drop = std::move(snap); }
  ASSERT_EQ(map_.retired_bytes(), 0u);
  br = c.batch({BatchEntry::insert(5000, 1), BatchEntry::insert(5001, 1)});
  EXPECT_EQ(br.status, Status::kOk);
  EXPECT_EQ(br.inserted, 2u);
  EXPECT_EQ(c.get(5000).status, Status::kOk);
}

TEST_F(ServerE2E, ShedStormNeverStallsTheEventLoops) {
  // The acceptance-criteria stress: sustained BATCH pressure while the
  // watermark is tripped. Every batch must bounce QUICKLY with kRetry
  // (the loops would deadlock or time out here if admission blocked),
  // and interleaved point reads on separate connections must keep
  // being served throughout the storm.
  ServerConfig cfg;
  cfg.shed_watermark = 1;
  start(cfg);

  {
    Client seed = connect();
    std::vector<BatchEntry> ops;
    for (std::int64_t k = 0; k < 100; ++k) {
      ops.push_back(BatchEntry::insert(k, k));
    }
    ASSERT_EQ(seed.batch(ops).status, Status::kOk);
  }
  auto snap = map_.snapshot();
  map_.reshard(RangeSplitter<std::int64_t>{0, kKeySpace * 2});
  ASSERT_GT(map_.retired_bytes(), 1u);

  constexpr int kWriters = 3;
  constexpr int kBatchesPerWriter = 40;
  std::atomic<int> retries{0}, batch_errors{0};
  std::atomic<bool> stop_reads{false};
  std::atomic<int> reads_ok{0}, read_errors{0};

  std::thread reader([&] {
    Client rc;
    if (!rc.connect("127.0.0.1", server_->port())) {
      ++read_errors;
      return;
    }
    while (!stop_reads.load(std::memory_order_acquire)) {
      const auto gr = rc.get(50);
      if (gr.status == Status::kOk && gr.value == 50) {
        ++reads_ok;
      } else {
        ++read_errors;
      }
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      Client wc;
      if (!wc.connect("127.0.0.1", server_->port())) {
        ++batch_errors;
        return;
      }
      std::vector<BatchEntry> ops;
      for (std::int64_t k = 0; k < 64; ++k) {
        ops.push_back(BatchEntry::insert(10000 + t * 1000 + k, k));
      }
      for (int i = 0; i < kBatchesPerWriter; ++i) {
        const auto br = wc.batch(ops);
        if (br.status == Status::kRetry && br.deferred == ops.size()) {
          ++retries;
        } else {
          ++batch_errors;
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  stop_reads.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(batch_errors.load(), 0);
  EXPECT_EQ(retries.load(), kWriters * kBatchesPerWriter);
  EXPECT_EQ(read_errors.load(), 0);
  EXPECT_GT(reads_ok.load(), 0);
  // Nothing leaked into the map, and the gauges agree with the storm.
  EXPECT_FALSE(map_.contains(10000));
  EXPECT_EQ(map_.admission_stats().deferred,
            static_cast<std::uint64_t>(kWriters * kBatchesPerWriter));
  EXPECT_GE(server_->stats().shed_responses,
            static_cast<std::uint64_t>(kWriters * kBatchesPerWriter));
}

TEST_F(ServerE2E, StopClosesConnectionsAndJoins) {
  start();
  Client c = connect();
  ASSERT_EQ(c.put(1, 1).status, Status::kOk);
  server_->stop();
  EXPECT_FALSE(server_->running());
  // The peer close surfaces as a failed round trip, not a hang.
  std::vector<std::uint8_t> resp;
  std::vector<std::uint8_t> wire;
  encode_get(wire, 1);
  c.send_bytes(wire.data(), wire.size());
  EXPECT_FALSE(c.recv_frame(resp));
  // stop() is idempotent (the destructor will call it again).
  server_->stop();
}

}  // namespace
}  // namespace pnbbst::net

// Wire-protocol and framing robustness (satellite of the network
// service layer): partial reads, length prefixes split across feeds,
// oversized-frame rejection before any allocation, and garbage input
// that must fail cleanly (bounds-latched WireReader) instead of
// indexing out of range. Runs under ASan/UBSan in CI, which is where
// the "no crash, no leak" half of the contract is actually enforced.
#include "server/protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "server/framing.h"
#include "util/random.h"

namespace pnbbst::net {
namespace {

std::vector<std::uint8_t> frame_of(const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> out;
  append_frame(out, body);
  return out;
}

TEST(Wire, WriterReaderRoundTrip) {
  std::vector<std::uint8_t> buf;
  WireWriter w(buf);
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  ASSERT_EQ(buf.size(), 1u + 4 + 8 + 8);

  WireReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, LittleEndianOnTheWire) {
  std::vector<std::uint8_t> buf;
  WireWriter w(buf);
  w.u32(0x11223344);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x44);
  EXPECT_EQ(buf[1], 0x33);
  EXPECT_EQ(buf[2], 0x22);
  EXPECT_EQ(buf[3], 0x11);
}

TEST(Wire, UnderflowLatchesAndReturnsZero) {
  const std::vector<std::uint8_t> buf = {0x01, 0x02};  // 2 bytes
  WireReader r(buf);
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_EQ(r.u32(), 0u);  // needs 4, has 1: latch
  EXPECT_FALSE(r.ok());
  // Every read after the latch is dead, even ones that would fit.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.done());
}

TEST(Wire, TrailingBytesFailDoneButNotOk) {
  const std::vector<std::uint8_t> buf = {0x01, 0x02};
  WireReader r(buf);
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_TRUE(r.ok());     // no underflow...
  EXPECT_FALSE(r.done());  // ...but one unconsumed byte: bad request
}

TEST(Wire, GarbageNeverIndexesOutOfBounds) {
  // Random bodies pushed through every decode shape the server uses.
  // The assertion is simply "no crash under ASan" plus the latch
  // behaving: if ok(), all reads were in bounds by construction.
  Xoshiro256 rng(123);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> body(rng.next_bounded(64));
    for (auto& b : body) b = static_cast<std::uint8_t>(rng.next());
    WireReader r(body);
    r.u8();   // opcode
    r.i64();  // key
    r.i64();  // value
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      r.u8();
      r.i64();
      r.i64();
    }
    if (body.size() < 1 + 8 + 8 + 4) {
      EXPECT_FALSE(r.ok());
    }
  }
}

TEST(Framing, WholeFrameInOneFeed) {
  FrameReader fr(1024);
  const std::vector<std::uint8_t> body = {1, 2, 3, 4, 5};
  fr.feed(frame_of(body));
  std::vector<std::uint8_t> out;
  ASSERT_EQ(fr.next(out), FrameReader::Next::kFrame);
  EXPECT_EQ(out, body);
  EXPECT_EQ(fr.next(out), FrameReader::Next::kNeedMore);
  EXPECT_EQ(fr.buffered(), 0u);
}

TEST(Framing, EmptyBodyFrameIsValid) {
  FrameReader fr(1024);
  fr.feed(frame_of({}));
  std::vector<std::uint8_t> out = {9, 9};
  ASSERT_EQ(fr.next(out), FrameReader::Next::kFrame);
  EXPECT_TRUE(out.empty());
}

TEST(Framing, LengthPrefixSplitAcrossFeeds) {
  FrameReader fr(1024);
  const auto wire = frame_of({0xAA, 0xBB, 0xCC});
  std::vector<std::uint8_t> out;
  // Feed the 4-byte prefix one byte at a time; no frame may surface
  // until the body is complete too.
  for (std::size_t i = 0; i < wire.size() - 1; ++i) {
    fr.feed(&wire[i], 1);
    ASSERT_EQ(fr.next(out), FrameReader::Next::kNeedMore) << "byte " << i;
  }
  fr.feed(&wire[wire.size() - 1], 1);
  ASSERT_EQ(fr.next(out), FrameReader::Next::kFrame);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0xAA, 0xBB, 0xCC}));
}

TEST(Framing, PipelinedFramesDribbledByteAtATime) {
  // Three pipelined frames delivered in 1-byte reads must come out as
  // exactly three frames with the right bodies, in order.
  std::vector<std::uint8_t> wire;
  append_frame(wire, {1});
  append_frame(wire, {});
  append_frame(wire, {2, 3, 4});
  FrameReader fr(1024);
  std::vector<std::vector<std::uint8_t>> got;
  std::vector<std::uint8_t> out;
  for (std::uint8_t b : wire) {
    fr.feed(&b, 1);
    while (fr.next(out) == FrameReader::Next::kFrame) got.push_back(out);
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (std::vector<std::uint8_t>{1}));
  EXPECT_TRUE(got[1].empty());
  EXPECT_EQ(got[2], (std::vector<std::uint8_t>{2, 3, 4}));
}

TEST(Framing, SeveralFramesInOneFeed) {
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 10; ++i) {
    append_frame(wire, {static_cast<std::uint8_t>(i)});
  }
  FrameReader fr(1024);
  fr.feed(wire);
  std::vector<std::uint8_t> out;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(fr.next(out), FrameReader::Next::kFrame);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], i);
  }
  EXPECT_EQ(fr.next(out), FrameReader::Next::kNeedMore);
}

TEST(Framing, OversizedPrefixRejectedFromPrefixAlone) {
  FrameReader fr(1024);
  std::vector<std::uint8_t> prefix;
  WireWriter w(prefix);
  w.u32(1025);  // one byte over the limit; no body follows
  fr.feed(prefix);
  std::vector<std::uint8_t> out;
  // Rejected with only 4 bytes fed: the reader must not wait for (or
  // allocate) the claimed body.
  EXPECT_EQ(fr.next(out), FrameReader::Next::kTooLarge);
}

TEST(Framing, TooLargeIsSticky) {
  FrameReader fr(16);
  std::vector<std::uint8_t> wire;
  WireWriter w(wire);
  w.u32(0xFFFFFFFF);
  fr.feed(wire);
  std::vector<std::uint8_t> out;
  EXPECT_EQ(fr.next(out), FrameReader::Next::kTooLarge);
  // Even a subsequently-fed valid frame stays rejected: the stream
  // offset is untrusted after a bad prefix.
  fr.feed(frame_of({1}));
  EXPECT_EQ(fr.next(out), FrameReader::Next::kTooLarge);
}

TEST(Framing, AtLimitFrameAccepted) {
  FrameReader fr(8);
  const std::vector<std::uint8_t> body = {1, 2, 3, 4, 5, 6, 7, 8};
  fr.feed(frame_of(body));
  std::vector<std::uint8_t> out;
  ASSERT_EQ(fr.next(out), FrameReader::Next::kFrame);
  EXPECT_EQ(out, body);
}

TEST(Framing, LongStreamCompactionKeepsFramesIntact) {
  // Push enough traffic through one reader to force several internal
  // compactions (off_ >= 4096 thresholds), split at awkward points.
  FrameReader fr(4096);
  Xoshiro256 rng(7);
  std::vector<std::uint8_t> wire;
  std::vector<std::vector<std::uint8_t>> sent;
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> body(rng.next_bounded(200));
    for (auto& b : body) b = static_cast<std::uint8_t>(rng.next());
    sent.push_back(body);
    append_frame(wire, body);
  }
  std::vector<std::vector<std::uint8_t>> got;
  std::vector<std::uint8_t> out;
  std::size_t off = 0;
  while (off < wire.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(1 + rng.next_bounded(97), wire.size() - off);
    fr.feed(&wire[off], chunk);
    off += chunk;
    while (fr.next(out) == FrameReader::Next::kFrame) got.push_back(out);
  }
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) EXPECT_EQ(got[i], sent[i]);
  EXPECT_EQ(fr.buffered(), 0u);
}

TEST(Framing, WriteBufferPatchesPrefixAndDrains) {
  WriteBuffer wb;
  const std::size_t p1 = wb.begin_frame();
  WireWriter w1(wb.raw());
  w1.u8(static_cast<std::uint8_t>(Status::kOk));
  w1.i64(77);
  wb.end_frame(p1);
  const std::size_t p2 = wb.begin_frame();
  WireWriter w2(wb.raw());
  w2.u8(static_cast<std::uint8_t>(Status::kNotFound));
  wb.end_frame(p2);

  // Drain through a FrameReader in two partial "writes" to exercise
  // consumed() bookkeeping.
  FrameReader fr(1024);
  const std::size_t half = wb.size() / 2;
  fr.feed(wb.data(), half);
  wb.consumed(half);
  fr.feed(wb.data(), wb.size());
  wb.consumed(wb.size());
  EXPECT_TRUE(wb.empty());

  std::vector<std::uint8_t> out;
  ASSERT_EQ(fr.next(out), FrameReader::Next::kFrame);
  WireReader r1(out);
  EXPECT_EQ(r1.u8(), static_cast<std::uint8_t>(Status::kOk));
  EXPECT_EQ(r1.i64(), 77);
  EXPECT_TRUE(r1.done());
  ASSERT_EQ(fr.next(out), FrameReader::Next::kFrame);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], static_cast<std::uint8_t>(Status::kNotFound));
}

TEST(Encoders, RequestsDecodeBackExactly) {
  std::vector<std::uint8_t> wire;
  encode_get(wire, -5);
  encode_put(wire, 1, 2);
  encode_del(wire, 3);
  encode_batch(wire, {BatchEntry::insert(10, 11), BatchEntry::erase(12)});
  encode_range(wire, 100, 200, 16);
  encode_metrics(wire);

  FrameReader fr;
  fr.feed(wire);
  std::vector<std::uint8_t> out;

  ASSERT_EQ(fr.next(out), FrameReader::Next::kFrame);
  {
    WireReader r(out);
    EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(Opcode::kGet));
    EXPECT_EQ(r.i64(), -5);
    EXPECT_TRUE(r.done());
  }
  ASSERT_EQ(fr.next(out), FrameReader::Next::kFrame);
  {
    WireReader r(out);
    EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(Opcode::kPut));
    EXPECT_EQ(r.i64(), 1);
    EXPECT_EQ(r.i64(), 2);
    EXPECT_TRUE(r.done());
  }
  ASSERT_EQ(fr.next(out), FrameReader::Next::kFrame);
  {
    WireReader r(out);
    EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(Opcode::kDel));
    EXPECT_EQ(r.i64(), 3);
    EXPECT_TRUE(r.done());
  }
  ASSERT_EQ(fr.next(out), FrameReader::Next::kFrame);
  {
    WireReader r(out);
    EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(Opcode::kBatch));
    ASSERT_EQ(r.u32(), 2u);
    EXPECT_EQ(r.remaining(), 2 * kBatchEntryBytes);
    EXPECT_EQ(r.u8(), 0);  // insert
    EXPECT_EQ(r.i64(), 10);
    EXPECT_EQ(r.i64(), 11);
    EXPECT_EQ(r.u8(), 1);  // erase
    EXPECT_EQ(r.i64(), 12);
    EXPECT_EQ(r.i64(), 0);
    EXPECT_TRUE(r.done());
  }
  ASSERT_EQ(fr.next(out), FrameReader::Next::kFrame);
  {
    WireReader r(out);
    EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(Opcode::kRange));
    EXPECT_EQ(r.i64(), 100);
    EXPECT_EQ(r.i64(), 200);
    EXPECT_EQ(r.u32(), 16u);
    EXPECT_TRUE(r.done());
  }
  ASSERT_EQ(fr.next(out), FrameReader::Next::kFrame);
  {
    WireReader r(out);
    EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(Opcode::kMetrics));
    EXPECT_TRUE(r.done());
  }
  EXPECT_EQ(fr.next(out), FrameReader::Next::kNeedMore);
}

}  // namespace
}  // namespace pnbbst::net

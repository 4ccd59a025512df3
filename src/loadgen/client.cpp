#include "loadgen/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace pnbbst::net {

Client::Client(Client&& o) noexcept
    : fd_(o.fd_), reader_(std::move(o.reader_)) {
  o.fd_ = -1;
}

Client& Client::operator=(Client&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    reader_ = std::move(o.reader_);
    o.fd_ = -1;
  }
  return *this;
}

bool Client::connect(const std::string& host, std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  reader_ = FrameReader(kMaxFrameBytes);
  return true;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::send_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      close();
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool Client::recv_frame(std::vector<std::uint8_t>& body) {
  for (;;) {
    switch (reader_.next(body)) {
      case FrameReader::Next::kFrame:
        return true;
      case FrameReader::Next::kTooLarge:
        close();
        return false;
      case FrameReader::Next::kNeedMore:
        break;
    }
    std::uint8_t buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      reader_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    close();  // EOF or error
    return false;
  }
}

std::string Client::recv_all() {
  std::string out;
  for (;;) {
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    close();  // EOF or error ends the stream
    return out;
  }
}

std::uint8_t Client::round_trip(const std::vector<std::uint8_t>& frame,
                                std::vector<std::uint8_t>& body) {
  if (fd_ < 0 || !send_bytes(frame.data(), frame.size()) ||
      !recv_frame(body) || body.empty()) {
    return kTransportError;
  }
  return body[0];
}

Client::GetReply Client::get(std::int64_t key) {
  std::vector<std::uint8_t> frame, body;
  encode_get(frame, key);
  GetReply r;
  const std::uint8_t st = round_trip(frame, body);
  if (st == kTransportError) return r;
  r.status = static_cast<Status>(st);
  if (r.status == Status::kOk) {
    WireReader rd(body);
    rd.u8();
    r.value = rd.i64();
  }
  return r;
}

Client::AckReply Client::put(std::int64_t key, std::int64_t value) {
  std::vector<std::uint8_t> frame, body;
  encode_put(frame, key, value);
  AckReply r;
  const std::uint8_t st = round_trip(frame, body);
  if (st == kTransportError) return r;
  r.status = static_cast<Status>(st);
  if (r.status == Status::kOk) {
    WireReader rd(body);
    rd.u8();
    r.changed = rd.u8() != 0;
  }
  return r;
}

Client::AckReply Client::del(std::int64_t key) {
  std::vector<std::uint8_t> frame, body;
  encode_del(frame, key);
  AckReply r;
  const std::uint8_t st = round_trip(frame, body);
  if (st == kTransportError) return r;
  r.status = static_cast<Status>(st);
  if (r.status == Status::kOk) {
    WireReader rd(body);
    rd.u8();
    r.changed = rd.u8() != 0;
  }
  return r;
}

Client::BatchReply Client::batch(const std::vector<BatchEntry>& entries) {
  std::vector<std::uint8_t> frame, body;
  encode_batch(frame, entries);
  BatchReply r;
  const std::uint8_t st = round_trip(frame, body);
  if (st == kTransportError) return r;
  r.status = static_cast<Status>(st);
  WireReader rd(body);
  rd.u8();
  if (r.status == Status::kOk) {
    r.applied = rd.u64();
    r.inserted = rd.u64();
    r.erased = rd.u64();
  } else if (r.status == Status::kRetry) {
    r.deferred = rd.u64();
  }
  return r;
}

Client::RangeReply Client::range(std::int64_t lo, std::int64_t hi,
                                 std::uint32_t limit) {
  std::vector<std::uint8_t> frame, body;
  encode_range(frame, lo, hi, limit);
  RangeReply r;
  const std::uint8_t st = round_trip(frame, body);
  if (st == kTransportError) return r;
  r.status = static_cast<Status>(st);
  if (r.status == Status::kOk) {
    WireReader rd(body);
    rd.u8();
    r.count = rd.u64();
    const std::uint32_t n = rd.u32();
    r.pairs.reserve(n);
    for (std::uint32_t i = 0; i < n && rd.ok(); ++i) {
      const std::int64_t k = rd.i64();
      const std::int64_t v = rd.i64();
      r.pairs.emplace_back(k, v);
    }
  }
  return r;
}

Client::MetricsReply Client::metrics() {
  std::vector<std::uint8_t> frame, body;
  encode_metrics(frame);
  MetricsReply r;
  const std::uint8_t st = round_trip(frame, body);
  if (st == kTransportError) return r;
  r.status = static_cast<Status>(st);
  if (r.status == Status::kOk) {
    WireReader rd(body);
    rd.u8();
    const std::uint32_t n = rd.u32();
    r.text.reserve(n);
    for (std::uint32_t i = 0; i < n && rd.ok(); ++i) {
      r.text.push_back(static_cast<char>(rd.u8()));
    }
    if (!rd.done()) r.text.clear();
  }
  return r;
}

}  // namespace pnbbst::net

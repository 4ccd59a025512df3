// Report assembly: metrics, ratios, sample counts and the JSON output.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "perfbench.h"

namespace perfbench {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

bool Report::has_metric(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

void Report::detail(const std::string& key, const std::string& json) {
  details_.emplace_back(key, json);
}

void Report::check(bool ok, const std::string& what) {
  (ok ? checks_ : failures_).push_back(what);
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i ? ", " : "") + json_str(m.name) + ": {\"value\": " +
           json_num(m.value) + ", \"unit\": " + json_str(m.unit) + "}";
  }
  out += "}, \"detail\": {";
  for (std::size_t i = 0; i < details_.size(); ++i) {
    out += (i ? ", " : "") + json_str(details_[i].first) + ": " +
           details_[i].second;
  }
  auto list = [](const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i ? ", " : "") + json_str(v[i]);
    }
    return s + "]";
  };
  out += "}, \"checks_passed\": " + list(checks_);
  out += ", \"checks_failed\": " + list(failures_) + "}";
  return out;
}

double quantile_ns(const Histogram& h, double q) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  // Same rank rule as Histogram::quantile, then linear interpolation
  // across the containing bucket instead of its midpoint, so the figure
  // moves with the data rather than in ~1.6% bucket steps.
  const double rank = q * static_cast<double>(n - 1);
  const std::size_t b = Histogram::index_for(h.quantile(q));
  const std::uint64_t below =
      b == 0 ? 0 : h.count_le(Histogram::value_for(b - 1));
  const std::uint64_t in_bucket = h.count_le(Histogram::value_for(b)) - below;
  double low = static_cast<double>(b);
  double width = 1.0;
  if (b >= Histogram::kSubBuckets) {
    const std::size_t shift = b / Histogram::kSubBuckets - 1;
    const std::size_t sub = b % Histogram::kSubBuckets;
    low = std::ldexp(static_cast<double>(Histogram::kSubBuckets + sub),
                     static_cast<int>(shift));
    width = std::ldexp(1.0, static_cast<int>(shift));
  }
  const double frac =
      (rank - static_cast<double>(below) + 0.5) / static_cast<double>(in_bucket);
  return low + width * std::clamp(frac, 0.0, 1.0);
}

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

double slice_rate_median(const std::vector<std::uint64_t>& counts) {
  std::vector<double> rates;
  for (std::uint64_t c : counts) {
    rates.push_back(static_cast<double>(c) * 1e9 /
                    static_cast<double>(Phase::kSliceNs));
  }
  return median(rates);
}

}  // namespace

double sliced_quantile_ns(const std::vector<Histogram>& slices, double q) {
  constexpr std::uint64_t kMinGroup = 1000;
  std::vector<double> groups;
  Histogram group;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    group.merge(slices[i]);
    const bool last = i + 1 == slices.size();
    if (group.count() >= kMinGroup || (last && groups.empty())) {
      groups.push_back(quantile_ns(group, q));
      group.reset();
    }
  }
  // A short tail group is too small to stand alone; it is dropped when
  // full groups exist.
  return median(groups);
}

void report_phase(const Tally& t, Report& rep) {
  rep.metric("throughput_ops_s", slice_rate_median(t.slice_ops), "1/s");
  rep.metric("update_ops_s", slice_rate_median(t.slice_updates), "1/s");
  const struct {
    const char* name;
    const std::vector<Histogram>& slices;
  } lat[] = {{"point", t.point}, {"scan", t.scan}, {"page", t.page}};
  std::string samples = "{";
  for (const auto& [name, slices] : lat) {
    std::uint64_t n = 0;
    for (const Histogram& h : slices) n += h.count();
    samples += std::string(samples.size() > 1 ? ", " : "") + "\"" + name +
               "\": " + std::to_string(n);
    if (n == 0) continue;
    rep.metric(std::string(name) + "_p50_us",
               sliced_quantile_ns(slices, 0.50) * 1e-3, "us");
    rep.metric(std::string(name) + "_p90_us",
               sliced_quantile_ns(slices, 0.90) * 1e-3, "us");
    rep.metric(std::string(name) + "_p99_us",
               sliced_quantile_ns(slices, 0.99) * 1e-3, "us");
  }
  rep.detail("latency_samples", samples + "}");
  std::string rates = "[";
  for (std::uint64_t c : t.slice_ops) {
    rates += (rates.size() > 1 ? ", " : "") +
             json_num(static_cast<double>(c) * 1e9 /
                      static_cast<double>(Phase::kSliceNs));
  }
  rep.detail("slice_ops_s", rates + "]");
  rep.detail("failed_share",
             json_num(ratio(static_cast<double>(t.failed),
                            static_cast<double>(t.ops))));
  char hash[24];
  std::snprintf(hash, sizeof(hash), "\"%016llx\"",
                static_cast<unsigned long long>(t.prefix_hash));
  rep.detail("op_prefix_hash", hash);
}

void report_overhead(const PhaseResult& untraced, const PhaseResult& traced,
                     Report& rep) {
  const double plain = slice_rate_median(untraced.tally.slice_ops);
  const double with = slice_rate_median(traced.tally.slice_ops);
  rep.metric("trace.untraced_ops_s", plain, "1/s");
  rep.metric("trace.traced_ops_s", with, "1/s");
  rep.metric("trace.overhead_share", 1.0 - ratio(with, plain), "share");
}

void report_layers(const LayerCounters& before, const LayerCounters& after,
                   const Tally& t, ServerMap& m, Report& rep) {
  auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double updates = static_cast<double>(t.updates);
  const double queries = static_cast<double>(t.queries);
  rep.metric("core.attempts_per_update",
             ratio(d(after.core.attempts, before.core.attempts), updates),
             "per_update");
  rep.metric("core.handshake_aborts_per_update",
             ratio(d(after.core.handshake_aborts, before.core.handshake_aborts),
                   updates),
             "per_update");
  rep.metric("core.helps_per_update",
             ratio(d(after.core.helps, before.core.helps), updates),
             "per_update");
  rep.metric("core.scan_helps_per_scan",
             ratio(d(after.core.scan_helps, before.core.scan_helps), queries),
             "per_query");
  rep.metric("core.phases_per_query", ratio(d(after.phases, before.phases), queries),
             "per_query");
  const double retired = d(after.retired, before.retired);
  rep.metric("reclaim.retired_per_update", ratio(retired, updates),
             "per_update");
  rep.metric("reclaim.freed_share",
             ratio(d(after.freed, before.freed), retired), "share");
  rep.metric("reclaim.pending_end", d(after.retired, after.freed), "count");

  const auto sizes = m.shard_sizes();
  double total = 0.0, largest = 0.0;
  for (std::size_t s : sizes) {
    total += static_cast<double>(s);
    largest = std::max(largest, static_cast<double>(s));
  }
  rep.metric("shard.size_imbalance",
             ratio(largest, total / static_cast<double>(sizes.size())),
             "ratio");
  rep.metric("mem.slots_live_per_key",
             ratio(static_cast<double>(after.mem.slots_live()), total),
             "per_key");
  rep.metric("mem.freelist_hit_share",
             ratio(d(after.mem.freelist_hits, before.mem.freelist_hits),
                   d(after.mem.slot_allocs, before.mem.slot_allocs)),
             "share");
  rep.metric("mem.slab_mb",
             static_cast<double>(after.mem.slab_bytes) / (1024.0 * 1024.0),
             "MB");
  rep.detail(
      "layer_deltas",
      "{\"update_calls\": " + std::to_string(t.updates) +
          ", \"query_calls\": " + std::to_string(t.queries) +
          ", \"attempts\": " + json_num(d(after.core.attempts, before.core.attempts)) +
          ", \"commits\": " + json_num(d(after.core.commits, before.core.commits)) +
          ", \"handshake_aborts\": " +
          json_num(d(after.core.handshake_aborts, before.core.handshake_aborts)) +
          ", \"helps\": " + json_num(d(after.core.helps, before.core.helps)) +
          ", \"tree_scans\": " + json_num(d(after.core.scans, before.core.scans)) +
          ", \"scan_helps\": " +
          json_num(d(after.core.scan_helps, before.core.scan_helps)) +
          ", \"phases\": " + json_num(d(after.phases, before.phases)) +
          ", \"retired\": " + json_num(retired) +
          ", \"freed\": " + json_num(d(after.freed, before.freed)) + "}");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void write_trace(const std::string& path,
                 const std::vector<std::unique_ptr<SpanLog>>& logs,
                 Report& rep) {
  std::uint64_t origin = ~std::uint64_t{0};
  std::size_t kept = 0;
  for (const auto& log : logs) {
    for (const Span& s : log->kept()) origin = std::min(origin, s.start);
    kept += log->kept().size();
  }
  std::string spans = "{";
  for (std::size_t n = 0; n < static_cast<std::size_t>(SpanName::kCount);
       ++n) {
    std::uint64_t count = 0, ns = 0;
    for (const auto& log : logs) {
      count += log->count(static_cast<SpanName>(n));
      ns += log->total_ns(static_cast<SpanName>(n));
    }
    if (count == 0) continue;
    spans += std::string(spans.size() > 1 ? ", " : "") +
             json_str(span_name(static_cast<SpanName>(n))) +
             ": {\"count\": " + std::to_string(count) + ", \"mean_ns\": " +
             json_num(ratio(static_cast<double>(ns),
                            static_cast<double>(count))) +
             "}";
  }
  rep.detail("spans", spans + "}");
  if (path.empty()) return;

  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  for (const auto& log : logs) {
    for (const Span& s : log->kept()) {
      out << (first ? "\n" : ",\n") << "{\"name\": \"" << span_name(s.name)
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
          << ", \"ts\": " << json_num(static_cast<double>(s.start - origin) * 1e-3)
          << ", \"dur\": " << json_num(static_cast<double>(s.end - s.start) * 1e-3)
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  out.close();
  rep.detail("trace_file", out ? json_str(path) : "null");
  rep.detail("trace_spans_kept", std::to_string(kept));
}

}  // namespace perfbench

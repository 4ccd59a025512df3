// In-process workloads (point_large, scan_mixed): client threads call the
// sharded map directly, closed loop, one call at a time.
#include <algorithm>
#include <atomic>

#include "perfbench.h"

namespace perfbench {

namespace {

PhaseResult run_calls(Crew& crew, ServerMap& m,
                      std::vector<CallStream>& streams, double seconds,
                      std::vector<std::unique_ptr<SpanLog>>* spans) {
  return run_phase(crew, seconds, [&](std::size_t i, const Phase& p, Tally& t) {
    CallStream& calls = streams[i];
    SpanLog* log = spans ? (*spans)[i].get() : nullptr;
    for (std::uint64_t now = now_ns(); now < p.t_end;) {
      const Req r = calls.next();
      ++t.ops;
      const std::uint64_t start = now_ns();
      now = apply(m, r, t);
      t.done(p, r.call, now, now - start);
      if (log) log->add(span_of(r.call), start, now);
    }
    t.prefix_hash = calls.prefix_hash();
  });
}

}  // namespace

void run_inproc(const Workload& w, const Options& o, Report& rep) {
  const std::vector<Key> keys = prefill_keys(w.key_range, o.seed);
  // The threads whose streams write share the prefill (see Crew); a
  // read-only thread allocates nothing once the workload runs.
  std::vector<std::size_t> writers;
  for (std::size_t i = 0; i < w.mixes.size(); ++i) {
    if (w.mixes[i].insert > 0.0) writers.push_back(i);
  }
  Crew crew(w.mixes.size(), 1);
  std::unique_ptr<ServerMap> map;
  std::atomic<std::size_t> prefilled{0};
  time_setup(
      o, rep, [&] { map.reset(); },
      [&] {
        map = std::make_unique<ServerMap>(
            pnbbst::RangeSplitter<Key>{0, w.key_range});
        prefilled = 0;
        crew.run([&](std::size_t i) {
          const auto at = std::find(writers.begin(), writers.end(), i);
          if (at == writers.end()) return;
          std::size_t added = 0;
          for (auto k = static_cast<std::size_t>(at - writers.begin());
               k < keys.size(); k += writers.size()) {
            added += map->insert(keys[k], keys[k]);
          }
          prefilled += added;
        });
      });

  std::vector<CallStream> streams;
  for (unsigned i = 0; i < w.mixes.size(); ++i) {
    streams.emplace_back(w.mixes[i], w.key_range, o.seed, i, w.pages);
  }
  if (!o.trace) {
    const PhaseResult r = run_calls(crew, *map, streams, o.seconds, nullptr);
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report_phase(r.tally, rep);
    rep.add_calls(r.tally.ops, r.tally.failed);
    check_map(*map, map->size(), prefilled, r.tally, o, rep);
    return;
  }

  // Traced run: an untraced half, then a traced half whose span and
  // counter deltas give the per-layer figures.
  PhaseResult plain = run_calls(crew, *map, streams, o.seconds / 2, nullptr);
  std::vector<std::unique_ptr<SpanLog>> spans;
  for (std::uint32_t i = 0; i < streams.size(); ++i) {
    spans.push_back(std::make_unique<SpanLog>(i));
  }
  const LayerCounters before = LayerCounters::read(*map);
  const PhaseResult traced =
      run_calls(crew, *map, streams, o.seconds / 2, &spans);
  const LayerCounters after = LayerCounters::read(*map);
  report_layers(before, after, traced.tally, *map, rep);
  report_overhead(plain, traced, rep);
  write_trace(o.trace_out, spans, rep);
  plain.tally.merge(traced.tally);
  rep.add_calls(plain.tally.ops, plain.tally.failed);
  check_map(*map, map->size(), prefilled, plain.tally, o, rep);
}

}  // namespace perfbench

#include "core/stream_merger.h"

#include <algorithm>
#include <numeric>

namespace rloop::core {

StreamMerger::StreamMerger(MergerConfig config, telemetry::Registry* registry,
                           telemetry::DecisionLog* journal)
    : config_(config),
      journal_(journal),
      m_merges_(telemetry::get_counter(
          registry, "rloop_merger_merges_total", {},
          "Stream pairs merged into an already-open loop")),
      m_loops_(telemetry::get_counter(registry, "rloop_merger_loops_total", {},
                                      "Routing loops emitted")) {}

namespace {

// Merges one prefix's streams (indices into `valid_streams`, any order) into
// loops appended to `loops`; `merges` counts pairs folded into an open loop.
void merge_prefix_group(const net::Prefix& prefix,
                        std::vector<std::uint32_t>& indices,
                        const std::vector<ReplicaStream>& valid_streams,
                        const NonLoopedIndex& index, net::TimeNs merge_gap,
                        std::vector<RoutingLoop>& loops,
                        std::uint64_t& merges,
                        telemetry::DecisionLog* journal) {
  std::sort(indices.begin(), indices.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return valid_streams[a].start() < valid_streams[b].start();
            });

  RoutingLoop current;
  bool open = false;
  auto flush = [&]() {
    if (!open) return;
    // The loop's hop count: mode of member streams' dominant deltas.
    TtlDeltaCounts delta_counts{};
    for (std::uint32_t si : current.stream_indices) {
      const int d = valid_streams[si].dominant_ttl_delta();
      if (d > 0) ++delta_counts[static_cast<std::size_t>(d)];
    }
    current.ttl_delta = ttl_delta_mode(delta_counts);
    telemetry::record(
        journal,
        {.kind = telemetry::DecisionKind::loop_emitted,
         .dst24 = prefix,
         .ts = current.end,
         .record_index = valid_streams[current.stream_indices.front()]
                             .replicas.front()
                             .record_index,
         .detail = static_cast<std::int64_t>(current.stream_count()),
         .detail2 = static_cast<std::int64_t>(current.replica_count)});
    loops.push_back(current);
    open = false;
  };

  for (std::uint32_t si : indices) {
    const ReplicaStream& s = valid_streams[si];
    const std::uint32_t rec = s.replicas.front().record_index;
    if (open) {
      const bool overlaps = s.start() <= current.end;
      const net::TimeNs gap = overlaps ? 0 : s.start() - current.end;
      // first_in doubles as the any_in check and the journal's evidence
      // (which healthy packet proved the loop healed inside the gap).
      const auto healthy =
          overlaps || gap >= merge_gap
              ? std::nullopt
              : index.first_in(prefix, current.end + 1, s.start() - 1);
      const bool near = !overlaps && gap < merge_gap && !healthy;
      if (overlaps || near) {
        ++merges;
        current.end = std::max(current.end, s.end());
        current.stream_indices.push_back(si);
        current.replica_count += s.size();
        telemetry::record(
            journal,
            {.kind = telemetry::DecisionKind::loop_extended,
             .dst24 = prefix,
             .ts = s.end(),
             .record_index = rec,
             .detail = gap,
             .detail2 = static_cast<std::int64_t>(current.stream_count())});
        continue;
      }
      if (journal) {
        if (healthy) {
          journal->record({.kind = telemetry::DecisionKind::loop_split_healthy,
                           .dst24 = prefix,
                           .ts = s.end(),
                           .record_index = rec,
                           .detail = gap,
                           .detail2 = *healthy});
        } else {
          journal->record({.kind = telemetry::DecisionKind::loop_split_gap,
                           .dst24 = prefix,
                           .ts = s.end(),
                           .record_index = rec,
                           .detail = gap,
                           .detail2 = merge_gap});
        }
      }
      flush();
    }
    current = RoutingLoop{};
    current.prefix24 = prefix;
    current.start = s.start();
    current.end = s.end();
    current.stream_indices = {si};
    current.replica_count = s.size();
    open = true;
  }
  flush();
}

void sort_loops(std::vector<RoutingLoop>& loops) {
  std::sort(loops.begin(), loops.end(),
            [](const RoutingLoop& a, const RoutingLoop& b) {
              if (a.prefix24 != b.prefix24) return a.prefix24 < b.prefix24;
              return a.start < b.start;
            });
}

}  // namespace

std::vector<RoutingLoop> StreamMerger::merge(
    const std::vector<ParsedRecord>& records,
    const std::vector<ReplicaStream>& valid_streams) const {
  // Gap checks use non-looped traffic, where "looped" means membership in a
  // validated stream: the question is whether forwarding for the prefix was
  // demonstrably healthy between two streams.
  const auto member = stream_membership(records.size(), valid_streams);
  const NonLoopedIndex index(records, member);
  return merge_with_index(index, valid_streams);
}

std::vector<RoutingLoop> StreamMerger::merge(
    const RecordStore& store,
    const std::vector<ReplicaStream>& valid_streams) const {
  const auto member = stream_membership(store.size(), valid_streams);
  NonLoopedIndex index;
  index.rebuild(store, member, valid_streams);
  return merge_with_index(index, valid_streams);
}

std::vector<RoutingLoop> StreamMerger::merge_with_index(
    const NonLoopedIndex& index,
    const std::vector<ReplicaStream>& valid_streams) const {
  // Group the streams by prefix and merge each group. Sorting the index
  // list by (prefix, index) yields ascending prefixes with ascending stream
  // indices inside each group, with no node allocation per prefix.
  std::vector<std::uint32_t> order(valid_streams.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const net::Prefix& pa = valid_streams[a].dst24;
              const net::Prefix& pb = valid_streams[b].dst24;
              if (pa != pb) return pa < pb;
              return a < b;
            });
  std::vector<std::uint32_t> group;
  std::vector<RoutingLoop> loops;
  std::uint64_t merges = 0;
  std::size_t i = 0;
  while (i < order.size()) {
    const net::Prefix prefix = valid_streams[order[i]].dst24;
    std::size_t j = i + 1;
    while (j < order.size() && valid_streams[order[j]].dst24 == prefix) ++j;
    group.assign(order.begin() + static_cast<std::ptrdiff_t>(i),
                 order.begin() + static_cast<std::ptrdiff_t>(j));
    merge_prefix_group(prefix, group, valid_streams, index,
                       config_.merge_gap, loops, merges, journal_);
    i = j;
  }
  telemetry::inc(m_merges_, merges);
  telemetry::inc(m_loops_, loops.size());

  sort_loops(loops);
  return loops;
}

}  // namespace rloop::core

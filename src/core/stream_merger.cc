#include "core/stream_merger.h"

#include <algorithm>
#include <array>

#include "core/parallel.h"

namespace rloop::core {

StreamMerger::StreamMerger(MergerConfig config, telemetry::Registry* registry,
                           telemetry::DecisionLog* journal)
    : config_(config),
      registry_(registry),
      journal_(journal),
      m_merges_(telemetry::get_counter(
          registry, "rloop_merger_merges_total", {},
          "Stream pairs merged into an already-open loop")),
      m_loops_(telemetry::get_counter(registry, "rloop_merger_loops_total", {},
                                      "Routing loops emitted")) {}

namespace {

// Merges one prefix's streams (indices into `valid_streams`, any order) into
// loops appended to `loops`. Shared verbatim by the serial and sharded paths
// so they cannot drift; `merges` counts pairs folded into an open loop.
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
    // The loop's hop count: mode of member streams' dominant deltas. Deltas
    // fit [1, 255], so a direct-indexed counter replaces the ordered map;
    // the ascending scan keeps the same smallest-delta tie-break.
    std::array<std::uint32_t, 256> delta_counts{};
    for (std::uint32_t si : current.stream_indices) {
      const int d = valid_streams[si].dominant_ttl_delta();
      if (d > 0) ++delta_counts[static_cast<std::size_t>(d)];
    }
    int best = 0;
    std::uint32_t best_count = 0;
    for (int d = 1; d < 256; ++d) {
      if (delta_counts[static_cast<std::size_t>(d)] > best_count) {
        best = d;
        best_count = delta_counts[static_cast<std::size_t>(d)];
      }
    }
    current.ttl_delta = best;
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

// Groups the stream indices selected by `keep` by prefix and runs
// merge_prefix_group once per group. This replaces the ordered-map grouping
// the merger used to build: sorting the index list by (prefix, index) yields
// the same ascending-prefix iteration with ascending stream index inside
// each group — the exact order the map produced — without a node allocation
// per prefix. `order` and `group` are caller-owned scratch so warm calls
// reuse their capacity.
template <typename Keep>
void group_and_merge(const std::vector<ReplicaStream>& valid_streams,
                     const Keep& keep, std::vector<std::uint32_t>& order,
                     std::vector<std::uint32_t>& group,
                     const NonLoopedIndex& index, net::TimeNs merge_gap,
                     std::vector<RoutingLoop>& loops, std::uint64_t& merges,
                     telemetry::DecisionLog* journal) {
  order.clear();
  for (std::uint32_t i = 0; i < valid_streams.size(); ++i) {
    if (keep(i)) order.push_back(i);
  }
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const net::Prefix& pa = valid_streams[a].dst24;
              const net::Prefix& pb = valid_streams[b].dst24;
              if (pa != pb) return pa < pb;
              return a < b;
            });
  std::size_t i = 0;
  while (i < order.size()) {
    const net::Prefix prefix = valid_streams[order[i]].dst24;
    std::size_t j = i + 1;
    while (j < order.size() && valid_streams[order[j]].dst24 == prefix) ++j;
    group.assign(order.begin() + static_cast<std::ptrdiff_t>(i),
                 order.begin() + static_cast<std::ptrdiff_t>(j));
    merge_prefix_group(prefix, group, valid_streams, index, merge_gap, loops,
                       merges, journal);
    i = j;
  }
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
  const NonLoopedIndex index(store, member);
  return merge_with_index(index, valid_streams);
}

std::vector<RoutingLoop> StreamMerger::merge_with_index(
    const NonLoopedIndex& index,
    const std::vector<ReplicaStream>& valid_streams) const {
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> group;
  std::vector<RoutingLoop> loops;
  std::uint64_t merges = 0;
  group_and_merge(
      valid_streams, [](std::uint32_t) { return true; }, order, group, index,
      config_.merge_gap, loops, merges, journal_);
  telemetry::inc(m_merges_, merges);
  telemetry::inc(m_loops_, loops.size());

  sort_loops(loops);
  return loops;
}

std::vector<RoutingLoop> StreamMerger::merge_sharded(
    const RecordStore& store,
    const std::vector<ReplicaStream>& valid_streams, util::ThreadPool& pool,
    unsigned num_shards, MergerScratch& scratch) const {
  stream_membership(store.size(), valid_streams, scratch.membership);
  if (num_shards < 2) {
    scratch.shard_indexes.resize(1);
    scratch.shard_indexes[0].rebuild(store, scratch.membership);
    return merge_with_index(scratch.shard_indexes[0], valid_streams);
  }
  shard_latency_histograms(registry_, "merge", num_shards,
                           scratch.shard_latency);
  auto& shard_loops = scratch.shard_loops;
  shard_loops.resize(num_shards);
  for (auto& v : shard_loops) v.clear();
  auto& shard_merges = scratch.shard_merges;
  shard_merges.assign(num_shards, 0);
  scratch.shard_indexes.resize(num_shards);
  scratch.shard_order.resize(num_shards);
  scratch.shard_group.resize(num_shards);
  pool.parallel_for(num_shards, [&](std::size_t s) {
    const telemetry::ScopedTimer timer(scratch.shard_latency[s]);
    NonLoopedIndex& index = scratch.shard_indexes[s];
    index.rebuild(store, scratch.membership, static_cast<unsigned>(s),
                  num_shards);
    // Group this shard's prefixes only, with global stream indices.
    group_and_merge(
        valid_streams,
        [&](std::uint32_t i) {
          return shard_of_prefix(valid_streams[i].dst24, num_shards) == s;
        },
        scratch.shard_order[s], scratch.shard_group[s], index,
        config_.merge_gap, shard_loops[s], shard_merges[s], journal_);
  }, "merge_shard");

  std::vector<RoutingLoop> loops;
  std::uint64_t merges = 0;
  std::size_t total = 0;
  for (unsigned s = 0; s < num_shards; ++s) total += shard_loops[s].size();
  loops.reserve(total);
  for (unsigned s = 0; s < num_shards; ++s) {
    merges += shard_merges[s];
    std::move(shard_loops[s].begin(), shard_loops[s].end(),
              std::back_inserter(loops));
  }
  telemetry::inc(m_merges_, merges);
  telemetry::inc(m_loops_, loops.size());

  // (prefix, start) is a total order — two loops for one prefix are disjoint
  // in time — so this sort reproduces the serial output order exactly.
  sort_loops(loops);
  return loops;
}

}  // namespace rloop::core

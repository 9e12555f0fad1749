// The flat replica-detection engine behind ReplicaDetector::detect() and the
// staged dataflow (core/pipeline.cc), which keeps one warm state per shard
// across runs.
//
// Open streams live in one FlatMap keyed by ReplicaKey, replica lists in an
// arena. One candidate stream per first-seen header means millions of tiny
// allocations per trace on a general-purpose heap; here a stream is a
// bump-allocated node with two inline replicas (the overwhelming majority of
// candidates never grow past one), overflowing into arena-chunked spans, all
// reclaimed wholesale when the state is destroyed — or rewound in place by
// reset(), which is what lets a persistent pipeline workspace run the whole
// detect stage without heap traffic once warm.
//
// Field-identical output to the reference engine in replica_detector.cc
// (detect_reference), including every journal event payload and every
// counter, the expired count included: expiry is determined purely by
// last_ts against the current record's timestamp, and both engines hold the
// same open set at every record by induction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/record_store.h"
#include "core/replica_detector.h"
#include "core/replica_key.h"
#include "net/time.h"
#include "telemetry/decision_log.h"
#include "telemetry/registry.h"
#include "util/arena.h"
#include "util/flat_map.h"

namespace rloop::core::detail {

struct LocalCounts {
  std::uint64_t records = 0;
  std::uint64_t replicas = 0;
  std::uint64_t opened = 0;
  std::uint64_t expired = 0;
  std::uint64_t emitted = 0;

  void add(const LocalCounts& other) {
    records += other.records;
    replicas += other.replicas;
    opened += other.opened;
    expired += other.expired;
    emitted += other.emitted;
  }
};

// The canonical emission order: (start, first record index) is a strict
// total order — a record heads at most one stream — so sorted output does
// not depend on closing order, and the sharded paths' merge of per-shard
// sorted runs reproduces the serial order exactly.
inline void sort_streams(std::vector<ReplicaStream>& streams) {
  std::sort(streams.begin(), streams.end(),
            [](const ReplicaStream& a, const ReplicaStream& b) {
              if (a.start() != b.start()) return a.start() < b.start();
              return a.replicas.front().record_index <
                     b.replicas.front().record_index;
            });
}

// Overflow storage for replicas beyond the two inline slots.
struct ReplicaChunk {
  static constexpr std::uint32_t kCap = 6;
  ReplicaChunk* next = nullptr;
  std::uint32_t n = 0;
  Replica items[kCap];
};

// One open candidate stream. Several can be open for one key (IP ID reuse
// over a long trace); they chain newest-first through `older`, mirroring the
// back-to-front scan order of the reference engine's per-key vector.
struct FlatOpenStream {
  FlatOpenStream* older = nullptr;
  ReplicaChunk* head_chunk = nullptr;
  ReplicaChunk* tail_chunk = nullptr;
  std::uint32_t count = 0;
  net::TimeNs last_ts = 0;
  std::uint8_t last_ttl = 0;
  net::Ipv4Addr dst;
  net::Prefix dst24;
  Replica inline_replicas[2];

  void push(util::Arena& arena, const Replica& r) {
    if (count < 2) {
      inline_replicas[count] = r;
    } else {
      if (tail_chunk == nullptr || tail_chunk->n == ReplicaChunk::kCap) {
        auto* chunk = arena.create<ReplicaChunk>();
        if (tail_chunk != nullptr) {
          tail_chunk->next = chunk;
        } else {
          head_chunk = chunk;
        }
        tail_chunk = chunk;
      }
      tail_chunk->items[tail_chunk->n++] = r;
    }
    ++count;
  }

  net::TimeNs start() const { return inline_replicas[0].ts; }
  // Every accepted replica updates last_ts, so last_ts is always the final
  // replica's timestamp — the stream's end.
  net::TimeNs end() const { return last_ts; }
  std::uint32_t first_record_index() const {
    return inline_replicas[0].record_index;
  }

  std::vector<Replica> materialize() const {
    std::vector<Replica> out;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count && i < 2; ++i) {
      out.push_back(inline_replicas[i]);
    }
    for (const ReplicaChunk* c = head_chunk; c != nullptr; c = c->next) {
      out.insert(out.end(), c->items, c->items + c->n);
    }
    return out;
  }
};

static_assert(std::is_trivially_destructible_v<FlatOpenStream>,
              "arena-allocated");
static_assert(std::is_trivially_destructible_v<ReplicaChunk>,
              "arena-allocated");

// The per-record state machine on the flat layout. Default-constructible and
// rebindable so a pipeline workspace can keep a pool of warm states: bind()
// points it at the current run's config/telemetry, reset() rewinds it for
// the next run while keeping every backing allocation.
struct FlatDetectState {
  void bind(const ReplicaDetectorConfig& cfg, telemetry::Histogram* sp,
            telemetry::DecisionLog* jl) {
    config = &cfg;
    spacing = sp;
    journal = jl;
  }

  // Rewinds for the next run; the arena, the open table and the closed
  // vector all keep their capacity (arena chunks are consolidated once,
  // then reused — see Arena::reset()).
  void reset() {
    arena.reset();
    open.clear();
    closed.clear();
    counts = LocalCounts{};
    since_sweep = 0;
  }

  const ReplicaDetectorConfig* config = nullptr;
  telemetry::Histogram* spacing = nullptr;
  telemetry::DecisionLog* journal = nullptr;

  util::Arena arena;
  util::FlatMap<ReplicaKey, FlatOpenStream*, ReplicaKeyHash> open;
  std::vector<ReplicaStream> closed;
  LocalCounts counts;

  // Periodic sweep keeps the open table bounded by the packet arrival rate
  // times the stream timeout rather than by the trace length: most entries
  // are ordinary packets that never produce a replica. Sweep timing affects
  // only memory and the expired counter, never which streams are emitted: a
  // timed-out stream can no longer be extended (the per-key expiry check
  // below closes it before any extension attempt).
  static constexpr std::uint32_t kSweepInterval = 1 << 16;
  std::uint32_t since_sweep = 0;

  void close_stream(const ReplicaKey& key, const FlatOpenStream* os) {
    if (os->count >= 2) {
      ++counts.emitted;
      telemetry::record(
          journal, {.kind = telemetry::DecisionKind::stream_emitted,
                    .dst24 = os->dst24,
                    .ts = os->end(),
                    .record_index = os->first_record_index(),
                    .detail = static_cast<std::int64_t>(os->count),
                    .detail2 = os->start()});
      ReplicaStream stream;
      stream.key = key;
      stream.dst = os->dst;
      stream.dst24 = os->dst24;
      stream.replicas = os->materialize();
      closed.push_back(std::move(stream));
    }
  }

  // Closes every timed-out stream in the chain and returns the surviving
  // chain, order preserved. Expired nodes stay in the arena (freed
  // wholesale); idempotent, as erase_if requires.
  FlatOpenStream* expire_chain(const ReplicaKey& key, FlatOpenStream* head,
                               net::TimeNs now) {
    FlatOpenStream* kept = nullptr;
    FlatOpenStream** tail = &kept;
    while (head != nullptr) {
      FlatOpenStream* next = head->older;
      if (now - head->last_ts > config->stream_timeout) {
        ++counts.expired;
        close_stream(key, head);
      } else {
        *tail = head;
        tail = &head->older;
      }
      head = next;
    }
    *tail = nullptr;
    return kept;
  }

  // `key` must be make_replica_key over record i's captured bytes; the
  // caller supplies it built from the store's precomputed hash column, so
  // FNV runs exactly once per record on every path.
  void process(const RecordStore& store, std::size_t i,
               const ReplicaKey& key) {
    ++counts.records;
    const net::TimeNs ts = store.ts(i);
    const std::uint8_t ttl = store.ttl(i);
    const auto index = static_cast<std::uint32_t>(i);

    if (++since_sweep >= kSweepInterval) {
      since_sweep = 0;
      open.erase_if([&](const ReplicaKey& k, FlatOpenStream*& head) {
        head = expire_chain(k, head, ts);
        return head == nullptr;
      });
    }

    const auto matches = [&](const ReplicaKey& k) { return k == key; };
    FlatOpenStream** entry = open.find_hashed(key.hash, matches);
    if (entry != nullptr) {
      // Expire stale streams for this key first.
      *entry = expire_chain(key, *entry, ts);

      // Try to extend the most recent compatible stream (newest first).
      for (FlatOpenStream* os = *entry; os != nullptr; os = os->older) {
        const int delta =
            static_cast<int>(os->last_ttl) - static_cast<int>(ttl);
        const bool looped = delta >= config->min_ttl_delta;
        const bool duplicate =
            config->keep_link_layer_duplicates && delta == 0;
        if (looped || duplicate) {
          ++counts.replicas;
          telemetry::observe(spacing, static_cast<double>(ts - os->last_ts));
          os->push(arena, {index, ts, ttl});
          if (looped) os->last_ttl = ttl;
          os->last_ts = ts;
          telemetry::record(
              journal, {.kind = telemetry::DecisionKind::replica_accepted,
                        .dst24 = store.dst24(i),
                        .ts = ts,
                        .record_index = index,
                        .detail = delta,
                        .detail2 = static_cast<std::int64_t>(os->count)});
          return;
        }
      }

      // A live candidate stream existed for this exact header, but the TTL
      // delta disqualified the observation — the one per-packet negative
      // decision worth journaling (first-seen packets are non-decisions).
      if (*entry != nullptr) {
        telemetry::record(
            journal, {.kind = telemetry::DecisionKind::replica_rejected,
                      .dst24 = store.dst24(i),
                      .ts = ts,
                      .record_index = index,
                      .detail = static_cast<int>((*entry)->last_ttl) -
                                static_cast<int>(ttl)});
      }
    }

    // Start a new stream headed by this packet.
    ++counts.opened;
    auto* os = arena.create<FlatOpenStream>();
    os->dst = store.dst(i);
    os->dst24 = store.dst24(i);
    os->inline_replicas[0] = {index, ts, ttl};
    os->count = 1;
    os->last_ttl = ttl;
    os->last_ts = ts;
    if (entry != nullptr) {
      os->older = *entry;
      *entry = os;  // no rehash since find_hashed: the slot pointer is valid
    } else {
      open.emplace_hashed(key.hash, matches, key, os);
    }
  }

  std::vector<ReplicaStream> finish() {
    open.for_each([&](const ReplicaKey& key, FlatOpenStream*& head) {
      for (const FlatOpenStream* os = head; os != nullptr; os = os->older) {
        close_stream(key, os);
      }
    });
    open.clear();
    sort_streams(closed);
    return std::move(closed);
  }
};

}  // namespace rloop::core::detail

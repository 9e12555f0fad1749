// The flat replica-detection engine behind ReplicaDetector::detect() and the
// sharded pipeline (core/pipeline.cc), which keeps one warm state per shard
// across runs.
//
// Open streams live in the OpenTable the streaming detector also uses
// (core/open_table.h): one slot per replica key, holding the key's chain of
// open streams. A stream is a bump-allocated arena node with two inline
// replicas (the overwhelming majority of candidates never grow past one),
// overflowing into arena-chunked spans, all reclaimed wholesale when the
// state is destroyed — or rewound in place by reset(), which is what lets a
// persistent pipeline workspace run the whole detect stage without heap
// traffic once warm.
//
// In front of the state machine sits a RepeatMark: a record whose key hash
// occurs once in the run is counted and skipped (see feed()). Streams, and
// every journal event payload, are field-identical to the reference engine
// in replica_detector.cc (detect_reference), and so are the records,
// replicas-matched and emitted counters and the spacing histogram. The
// opened counter counts candidates over the records that reach the state
// machine — those whose key hash repeats, plus the one-offs a shared mark
// bucket lets through — so it is at most the reference's. Expired counts
// streams closed by the timeout, at a lookup of their key or when the table
// retires the key; the reference closes the latter at the key's next
// lookup, or uncounted at the end of the run.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/open_table.h"
#include "core/parallel.h"
#include "core/record_store.h"
#include "core/replica_detector.h"
#include "core/replica_key.h"
#include "net/time.h"
#include "telemetry/decision_log.h"
#include "telemetry/registry.h"
#include "util/arena.h"

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

// Which replica-key hashes occur more than once in a run. A replica is a
// second copy of a header, so a record whose key hash occurs once can
// neither extend a stream nor open one that ever reaches two replicas;
// skipping it changes no stream, loop or journal event. add() every record
// first, then ask repeated(). Buckets are the high bits of mix64(hash) —
// independent of the low bits that pick a pipeline shard — with 16 to 32
// buckets per record, so few one-offs share a bucket. A shared bucket only
// lets a one-off through: the mark is conservative, never lossy.
class RepeatMark {
 public:
  // Sizes for `records` add() calls and clears every bucket. Capacity is
  // kept, so a warm pipeline shard's mark allocates nothing.
  void reset(std::size_t records) {
    const std::size_t buckets = std::bit_ceil(std::max<std::size_t>(
                                    records, 8)) * kBucketsPerRecord;
    shift_ = 64 - std::countr_zero(buckets);
    words_.assign(2 * (buckets / 64), 0);
  }

  void add(std::uint64_t key_hash) {
    const std::size_t b = bucket(key_hash);
    std::uint64_t* pair = &words_[2 * (b / 64)];
    const std::uint64_t bit = std::uint64_t{1} << (b % 64);
    pair[1] |= pair[0] & bit;  // seen before: now repeated
    pair[0] |= bit;
  }

  bool repeated(std::uint64_t key_hash) const {
    const std::size_t b = bucket(key_hash);
    return ((words_[2 * (b / 64) + 1] >> (b % 64)) & 1) != 0;
  }

  std::size_t bucket(std::uint64_t key_hash) const {
    return static_cast<std::size_t>(mix64(key_hash) >> shift_);
  }

 private:
  static constexpr std::size_t kBucketsPerRecord = 16;
  // Interleaved (seen, repeated) word pairs: one cache line per probe.
  std::vector<std::uint64_t> words_;
  int shift_ = 64;
};

// One open candidate stream. Several can be open for one key (IP ID reuse
// over a long trace); they chain newest-first through `older`, mirroring the
// back-to-front scan order of the reference engine's per-key vector.
struct FlatOpenStream {
  FlatOpenStream* older = nullptr;
  ReplicaChunk* head_chunk = nullptr;
  ReplicaChunk* tail_chunk = nullptr;
  std::uint32_t count = 0;
  net::TimeNs last_ts = 0;  // every replica updates it: the stream's end
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
  }

  const ReplicaDetectorConfig* config = nullptr;
  telemetry::Histogram* spacing = nullptr;
  telemetry::DecisionLog* journal = nullptr;

  // Filled by the caller (reset + add over the run's key hashes) before the
  // first feed(); a pipeline shard marks only the hashes it owns.
  RepeatMark mark;
  util::Arena arena;
  // Per key, its open streams newest first; every record touches its key.
  OpenTable<FlatOpenStream*> open;
  std::vector<ReplicaStream> closed;
  LocalCounts counts;

  // A timed-out stream also counts as expired.
  void close_stream(const ReplicaKey& key, const FlatOpenStream* os,
                    bool timed_out = false) {
    counts.expired += timed_out ? 1 : 0;
    if (os->count >= 2) {
      ++counts.emitted;
      telemetry::record(
          journal, {.kind = telemetry::DecisionKind::stream_emitted,
                    .dst24 = os->dst24,
                    .ts = os->last_ts,
                    .record_index = os->first_record_index(),
                    .detail = static_cast<std::int64_t>(os->count),
                    .detail2 = os->start()});
      closed.push_back({key, os->dst, os->dst24, os->materialize()});
    }
  }

  // Feeds parsed record i (store.ok(i)): through the state machine when
  // its key hash is marked repeated, otherwise it is only counted. The key
  // is built from the store's precomputed hash column, so FNV runs exactly
  // once per record on every path.
  void feed(const RecordStore& store, std::size_t i) {
    ++counts.records;
    const std::uint64_t hash = store.key_hash(i);
    if (!mark.repeated(hash)) return;
    const ReplicaKey key = make_replica_key(store.bytes(i), hash);
    const net::TimeNs ts = store.ts(i);
    const std::uint8_t ttl = store.ttl(i);
    const auto index = static_cast<std::uint32_t>(i);

    // Timestamps never decrease (a Trace rejects it, and every shard is fed
    // in trace order), so a key the FIFO retires here last touched its
    // newest stream more than stream_timeout ago: its whole chain has timed
    // out, as the reference would find at the key's next lookup.
    open.expire(ts, config->stream_timeout,
                [&](const ReplicaKey& k, const FlatOpenStream* os) {
                  for (; os != nullptr; os = os->older) {
                    close_stream(k, os, true);
                  }
                });
    open.reserve_one();
    const std::uint32_t slot = open.find(key);
    if (slot != open.kNone) {
      // Newest first: close and unlink timed-out streams (their nodes stay
      // in the arena), and extend the first compatible one.
      FlatOpenStream** link = &open.value(slot);
      while (FlatOpenStream* os = *link) {
        if (ts - os->last_ts > config->stream_timeout) {
          close_stream(key, os, true);
          *link = os->older;
          continue;
        }
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
          open.touch(slot, ts);
          telemetry::record(
              journal, {.kind = telemetry::DecisionKind::replica_accepted,
                        .dst24 = store.dst24(i),
                        .ts = ts,
                        .record_index = index,
                        .detail = delta,
                        .detail2 = static_cast<std::int64_t>(os->count)});
          return;
        }
        link = &os->older;
      }

      // A live candidate stream existed for this exact header, but the TTL
      // delta disqualified the observation — the one per-packet negative
      // decision worth journaling (first-seen packets are non-decisions).
      // The scan reached the end, so the chain holds live streams only.
      if (const FlatOpenStream* newest = open.value(slot)) {
        telemetry::record(
            journal, {.kind = telemetry::DecisionKind::replica_rejected,
                      .dst24 = store.dst24(i),
                      .ts = ts,
                      .record_index = index,
                      .detail = static_cast<int>(newest->last_ttl) -
                                static_cast<int>(ttl)});
      }
    }

    // Start a new stream headed by this packet.
    ++counts.opened;
    auto* os = arena.create<FlatOpenStream>(FlatOpenStream{
        .count = 1, .last_ts = ts, .last_ttl = ttl, .dst = store.dst(i),
        .dst24 = store.dst24(i), .inline_replicas = {{index, ts, ttl}}});
    if (slot == open.kNone) {
      open.insert(key, os, ts);
    } else {
      os->older = std::exchange(open.value(slot), os);
      open.touch(slot, ts);
    }
  }

  // Closes every open stream into `closed`, in the canonical order. The
  // caller moves the streams out; `closed` itself stays, so its capacity
  // survives reset().
  void finish() {
    open.for_each([&](const ReplicaKey& key, const FlatOpenStream* os) {
      for (; os != nullptr; os = os->older) close_stream(key, os);
    });
    open.clear();
    sort_streams(closed);
  }
};

}  // namespace rloop::core::detail

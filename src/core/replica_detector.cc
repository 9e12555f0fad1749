#include "core/replica_detector.h"

#include <algorithm>
#include <unordered_map>

#include "core/detect_state.h"

namespace rloop::core {

using detail::FlatDetectState;
using detail::LocalCounts;
using detail::sort_streams;

std::vector<int> ReplicaStream::ttl_deltas() const {
  std::vector<int> deltas;
  deltas.reserve(replicas.size() > 0 ? replicas.size() - 1 : 0);
  for (std::size_t i = 1; i < replicas.size(); ++i) {
    deltas.push_back(static_cast<int>(replicas[i - 1].ttl) -
                     static_cast<int>(replicas[i].ttl));
  }
  return deltas;
}

int ttl_delta_mode(const TtlDeltaCounts& counts) {
  // The ascending scan with a strict `>` gives the smallest-delta tie-break.
  int best = 0;
  std::uint32_t best_count = 0;
  for (int d = 1; d < 256; ++d) {
    if (counts[static_cast<std::size_t>(d)] > best_count) {
      best = d;
      best_count = counts[static_cast<std::size_t>(d)];
    }
  }
  return best;
}

int ReplicaStream::dominant_ttl_delta() const {
  TtlDeltaCounts counts{};
  for (std::size_t i = 1; i < replicas.size(); ++i) {
    if (replicas[i - 1].ttl > replicas[i].ttl) {
      ++counts[replicas[i - 1].ttl - replicas[i].ttl];
    }
  }
  return ttl_delta_mode(counts);
}

double ReplicaStream::mean_spacing_ns() const {
  if (replicas.size() < 2) return 0.0;
  return static_cast<double>(duration()) /
         static_cast<double>(replicas.size() - 1);
}

ReplicaDetector::ReplicaDetector(ReplicaDetectorConfig config,
                                 telemetry::Registry* registry,
                                 telemetry::DecisionLog* journal)
    : config_(config),
      journal_(journal),
      m_records_(telemetry::get_counter(
          registry, "rloop_detector_records_total", {},
          "Parsed records scanned by the replica detector")),
      m_replicas_(telemetry::get_counter(
          registry, "rloop_detector_replicas_matched_total", {},
          "Observations matched into an existing replica stream")),
      m_streams_opened_(telemetry::get_counter(
          registry, "rloop_detector_streams_opened_total", {},
          "Candidate streams opened by records whose key hash is marked "
          "repeated (a header seen once in the trace opens none)")),
      m_streams_expired_(telemetry::get_counter(
          registry, "rloop_detector_streams_expired_total", {},
          "Candidate streams (as counted by streams_opened) closed by the "
          "stream timeout")),
      m_streams_emitted_(telemetry::get_counter(
          registry, "rloop_detector_streams_emitted_total", {},
          "Closed streams with >= 2 replicas handed to validation")),
      m_spacing_(telemetry::get_histogram(
          registry, "rloop_detector_replica_spacing_ns",
          telemetry::spacing_bounds_ns(), {},
          "Spacing between successive replicas of one stream")) {}

// The flat engine itself (FlatDetectState and its helpers) lives in
// core/detect_state.h: the sharded pipeline in core/pipeline.cc keeps one
// warm state per shard across runs, so it needs the type, not just the
// detect() entry points below.

void ReplicaDetector::bind(FlatDetectState& state) const {
  state.bind(config_, m_spacing_, journal_);
}

void ReplicaDetector::publish(const LocalCounts& counts) const {
  telemetry::inc(m_records_, counts.records);
  telemetry::inc(m_replicas_, counts.replicas);
  telemetry::inc(m_streams_opened_, counts.opened);
  telemetry::inc(m_streams_expired_, counts.expired);
  telemetry::inc(m_streams_emitted_, counts.emitted);
}

namespace {

// ---------------------------------------------------------------------------
// Reference engine (pre-flat-map), retained verbatim as the differential
// oracle for detect_reference(). Do not modify without regenerating the
// golden fixtures — its output defines the pipeline's semantics.

struct OpenStream {
  ReplicaStream stream;
  std::uint8_t last_ttl = 0;
  net::TimeNs last_ts = 0;
};

struct DetectState {
  DetectState(const ReplicaDetectorConfig& cfg, telemetry::Histogram* sp,
              telemetry::DecisionLog* jl)
      : config(cfg), spacing(sp), journal(jl) {}

  const ReplicaDetectorConfig& config;
  telemetry::Histogram* spacing;
  telemetry::DecisionLog* journal;

  // Several streams can be open for one key (IP ID reuse over a long trace),
  // so each key maps to a small vector of open streams.
  std::unordered_map<ReplicaKey, std::vector<OpenStream>, ReplicaKeyHash> open;
  std::vector<ReplicaStream> closed;
  LocalCounts counts;

  static constexpr std::uint32_t kSweepInterval = 1 << 16;
  std::uint32_t since_sweep = 0;

  void close_stream(OpenStream&& os) {
    if (os.stream.size() >= 2) {
      ++counts.emitted;
      telemetry::record(
          journal,
          {.kind = telemetry::DecisionKind::stream_emitted,
           .dst24 = os.stream.dst24,
           .ts = os.stream.end(),
           .record_index = os.stream.replicas.front().record_index,
           .detail = static_cast<std::int64_t>(os.stream.size()),
           .detail2 = os.stream.start()});
      closed.push_back(std::move(os.stream));
    }
  }

  void process(const ParsedRecord& rec, const ReplicaKey& key) {
    ++counts.records;

    if (++since_sweep >= kSweepInterval) {
      since_sweep = 0;
      for (auto it = open.begin(); it != open.end();) {
        auto& vec = it->second;
        for (auto sit = vec.begin(); sit != vec.end();) {
          if (rec.ts - sit->last_ts > config.stream_timeout) {
            ++counts.expired;
            close_stream(std::move(*sit));
            sit = vec.erase(sit);
          } else {
            ++sit;
          }
        }
        it = vec.empty() ? open.erase(it) : std::next(it);
      }
    }

    auto& streams = open[key];

    // Expire stale streams for this key first.
    for (auto it = streams.begin(); it != streams.end();) {
      if (rec.ts - it->last_ts > config.stream_timeout) {
        ++counts.expired;
        close_stream(std::move(*it));
        it = streams.erase(it);
      } else {
        ++it;
      }
    }

    // Try to extend the most recent compatible stream.
    for (auto it = streams.rbegin(); it != streams.rend(); ++it) {
      const int delta =
          static_cast<int>(it->last_ttl) - static_cast<int>(rec.pkt.ip.ttl);
      const bool looped = delta >= config.min_ttl_delta;
      const bool duplicate = config.keep_link_layer_duplicates && delta == 0;
      if (looped || duplicate) {
        ++counts.replicas;
        telemetry::observe(spacing,
                           static_cast<double>(rec.ts - it->last_ts));
        it->stream.replicas.push_back({rec.index, rec.ts, rec.pkt.ip.ttl});
        if (looped) it->last_ttl = rec.pkt.ip.ttl;
        it->last_ts = rec.ts;
        telemetry::record(
            journal, {.kind = telemetry::DecisionKind::replica_accepted,
                      .dst24 = rec.dst24,
                      .ts = rec.ts,
                      .record_index = rec.index,
                      .detail = delta,
                      .detail2 = static_cast<std::int64_t>(it->stream.size())});
        return;
      }
    }

    if (!streams.empty()) {
      telemetry::record(
          journal, {.kind = telemetry::DecisionKind::replica_rejected,
                    .dst24 = rec.dst24,
                    .ts = rec.ts,
                    .record_index = rec.index,
                    .detail = static_cast<int>(streams.back().last_ttl) -
                              static_cast<int>(rec.pkt.ip.ttl)});
    }

    // Start a new stream headed by this packet.
    ++counts.opened;
    OpenStream os;
    os.stream.key = key;
    os.stream.dst = rec.pkt.ip.dst;
    os.stream.dst24 = rec.dst24;
    os.stream.replicas.push_back({rec.index, rec.ts, rec.pkt.ip.ttl});
    os.last_ttl = rec.pkt.ip.ttl;
    os.last_ts = rec.ts;
    streams.push_back(std::move(os));
  }

  std::vector<ReplicaStream> finish() {
    for (auto& [key, streams] : open) {
      for (auto& os : streams) {
        close_stream(std::move(os));
      }
    }
    open.clear();
    sort_streams(closed);
    return std::move(closed);
  }
};

}  // namespace

std::vector<ReplicaStream> ReplicaDetector::detect(
    const RecordStore& store) const {
  FlatDetectState state;
  bind(state);
  const std::size_t n = store.size();
  state.mark.reset(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (store.ok(i)) state.mark.add(store.key_hash(i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (store.ok(i)) state.feed(store, i);
  }
  state.finish();
  publish(state.counts);
  return std::move(state.closed);
}

std::vector<ReplicaStream> ReplicaDetector::detect_reference(
    const net::Trace& trace, const std::vector<ParsedRecord>& records) const {
  DetectState state(config_, m_spacing_, journal_);
  for (const ParsedRecord& rec : records) {
    if (!rec.ok) continue;
    state.process(rec, make_replica_key(trace[rec.index].bytes()));
  }
  auto closed = state.finish();
  publish(state.counts);
  return closed;
}

std::vector<bool> stream_membership(std::size_t record_count,
                                    const std::vector<ReplicaStream>& streams) {
  std::vector<bool> member(record_count, false);
  for (const auto& stream : streams) {
    for (const auto& replica : stream.replicas) {
      member[replica.record_index] = true;
    }
  }
  return member;
}

}  // namespace rloop::core

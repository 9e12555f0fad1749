#include "core/streaming_detector.h"

#include <algorithm>
#include <new>
#include <vector>

#include "net/byteio.h"
#include "net/ipv4.h"
#include "util/failpoint.h"

namespace rloop::core {

StreamingDetector::StreamingDetector(StreamingConfig config,
                                     AlertCallback on_alert,
                                     telemetry::Registry* registry,
                                     telemetry::DecisionLog* journal)
    : config_(config),
      on_alert_(std::move(on_alert)),
      journal_(journal),
      m_packets_(telemetry::get_counter(
          registry, "rloop_streaming_packets_total", {},
          "Packets fed to the streaming detector")),
      m_parse_failures_(telemetry::get_counter(
          registry, "rloop_streaming_parse_failures_total", {},
          "Packets whose IP header failed to parse")),
      m_alerts_(telemetry::get_counter(
          registry, "rloop_streaming_alerts_total", {},
          "Loop alerts raised (callback invocations)")),
      m_suppressed_(telemetry::get_counter(
          registry, "rloop_streaming_holddown_suppressed_total", {},
          "Alerts suppressed by the per-prefix hold-down")),
      m_reordered_(telemetry::get_counter(
          registry, "rloop_streaming_reordered_total", {},
          "Out-of-order packets clamped to the newest seen timestamp")),
      m_reorder_dropped_(telemetry::get_counter(
          registry, "rloop_streaming_reorder_dropped_total", {},
          "Packets beyond the reorder tolerance, dropped unprocessed")),
      m_evicted_(telemetry::get_counter(
          registry, "rloop_streaming_evicted_total", {},
          "Entries evicted by the max_open_entries budget")),
      m_sampled_(telemetry::get_counter(
          registry, "rloop_streaming_sampled_dropped_total", {},
          "Non-suspect packets dropped by overload sampling")),
      m_open_entries_(telemetry::get_gauge(
          registry, "rloop_streaming_open_entries", {},
          "Replica-candidate entries currently tracked; a surge here is "
          "the live loop signal")) {}

namespace {

// Packets between trims of the hold-down and suspect tables.
constexpr std::uint32_t kTickPackets = 1u << 15;

}  // namespace

// Grows every container on_packet may append to, before the packet writes
// any detector state: a std::bad_alloc from here (or from the failpoint)
// leaves the detector exactly as if it never saw the packet. Each packet
// inserts or touches one open-table slot and appends at most one suspect
// slot and one entry in each map; after this point nothing allocates.
void StreamingDetector::reserve_for_packet() {
  if (RLOOP_FAILPOINT("streaming.insert")) throw std::bad_alloc();
  open_.reserve_one();
  if (suspect_slots_.size() == suspect_slots_.capacity()) {
    suspect_slots_.reserve(
        std::max<std::size_t>(64, 2 * suspect_slots_.size()));
  }
  suspects_.reserve(suspects_.size() + 1);
  last_alert_.reserve(last_alert_.size() + 1);
}

// Trims the two small tables; the open entries need no sweep. suspects_
// ends up exactly {prefixes of open entries with >= 2 replicas} plus the
// surviving hold-downs. Every such prefix is already in suspects_ (it went
// in when its entry reached 2 replicas), so the rebuild only re-stamps and
// erases: it never allocates.
void StreamingDetector::tick(net::TimeNs now) {
  last_alert_.erase_if([&](const net::Prefix&, net::TimeNs ts) {
    return now - ts > 2 * config_.alert_holddown;
  });
  std::sort(suspect_slots_.begin(), suspect_slots_.end());
  suspect_slots_.erase(
      std::unique(suspect_slots_.begin(), suspect_slots_.end()),
      suspect_slots_.end());
  std::erase_if(suspect_slots_, [&](std::uint32_t s) {
    return !open_.live(s) || open_.value(s).replicas < 2;
  });
  ++tick_;
  for (const std::uint32_t s : suspect_slots_) {
    suspects_[open_.value(s).prefix24] = tick_;
  }
  last_alert_.for_each([&](const net::Prefix& prefix, net::TimeNs) {
    suspects_[prefix] = tick_;
  });
  suspects_.erase_if(
      [&](const net::Prefix&, std::uint32_t stamp) { return stamp != tick_; });
}

void StreamingDetector::on_packet(net::TimeNs ts,
                                  std::span<const std::byte> bytes) {
  const bool late = packets_seen_ > 0 && ts < last_ts_;
  if (late && last_ts_ - ts > config_.reorder_tolerance_ns) {
    // Capture jitter beyond the tolerance: counted and dropped.
    ++packets_seen_;
    telemetry::inc(m_packets_);
    ++reorder_dropped_;
    telemetry::inc(m_reorder_dropped_);
    return;
  }
  reserve_for_packet();
  ++packets_seen_;
  telemetry::inc(m_packets_);
  if (late) {
    ts = last_ts_;
    ++reordered_;
    telemetry::inc(m_reordered_);
  }
  last_ts_ = ts;
  // Exact expiry: every entry idle for more than stream_timeout is gone
  // before the packet is looked up.
  open_.expire(ts, config_.stream_timeout, [](const auto&...) {});
  if (++since_sweep_ >= kTickPackets) {
    since_sweep_ = 0;
    tick(ts);
  }
  process(ts, bytes);
  telemetry::set(m_open_entries_, static_cast<std::int64_t>(open_.size()));
}

void StreamingDetector::process(net::TimeNs ts,
                                std::span<const std::byte> bytes) {
  // Overload sampling (governor tier 3): non-suspect destinations are
  // decimated 1-in-sample_n_ before any parsing or hashing. Suspect /24s
  // keep full fidelity so an in-progress loop's replica count stays exact.
  if (sample_n_ > 1 && bytes.size() >= net::kIpv4HeaderSize) {
    const net::Prefix dst24 =
        net::Prefix::slash24(net::Ipv4Addr(net::read_u32(bytes, 16)));
    if (!suspects_.find(dst24) && ++sample_tick_ % sample_n_ != 0) {
      ++sampled_dropped_;
      telemetry::inc(m_sampled_);
      return;
    }
  }

  const auto ip = net::Ipv4Header::parse(bytes);
  if (!ip) {
    telemetry::inc(m_parse_failures_);
    return;
  }
  const ReplicaKey key = make_replica_key(bytes);
  // The entry this packet starts if it opens or restarts a stream.
  const OpenEntry fresh{ts, ts, ip->ttl, 1, 0, net::Prefix::slash24(ip->dst)};
  const std::uint32_t s = open_.find(key);
  if (s == open_.kNone) {
    // Hard-budget eviction (the bounded-memory guarantee the daemon relies
    // on), only when this insert would cross max_open_entries. Expiry has
    // already removed every entry idle past stream_timeout, so this pops the
    // FIFO — oldest touch first, skipping stale records — down to ~7/8 of
    // the budget, so evictions happen in batches instead of on every packet
    // at the boundary.
    const std::size_t budget = config_.max_open_entries;
    if (budget > 0 && open_.size() >= budget) {
      const std::uint64_t evicted =
          open_.evict_to(budget - std::max<std::size_t>(1, budget / 8));
      evicted_ += evicted;
      telemetry::inc(m_evicted_, evicted);
    }
    open_.insert(key, fresh, ts);
    peak_open_ = std::max(peak_open_, open_.size());
    return;
  }

  OpenEntry& entry = open_.value(s);
  const int delta =
      static_cast<int>(entry.last_ttl) - static_cast<int>(ip->ttl);
  // Expiry has already removed every entry idle past stream_timeout.
  if (delta < config_.min_ttl_delta) {
    if (delta < 0) {
      // TTL increased: a different original packet with identical bytes.
      entry = fresh;
      open_.touch(s, ts);
    }
    // Equal/-1 TTL: link-layer duplicate or adjacent hop; not loop evidence.
    return;
  }

  entry.last_ttl = ip->ttl;
  entry.last_ts = ts;
  entry.last_delta = delta;
  ++entry.replicas;
  open_.touch(s, ts);
  // Two replicas make the entry a loop suspect: exempt its /24 from overload
  // sampling so the stream's count stays exact under degradation.
  if (entry.replicas == 2) {
    suspects_.emplace(entry.prefix24, tick_);
    suspect_slots_.push_back(s);
  }

  if (entry.replicas >= config_.min_replicas) {
    auto [last_alert, first_alert] = last_alert_.emplace(entry.prefix24, ts);
    if (!first_alert && ts - *last_alert < config_.alert_holddown) {
      telemetry::inc(m_suppressed_);
      telemetry::record(
          journal_, {.kind = telemetry::DecisionKind::alert_suppressed,
                     .dst24 = entry.prefix24,
                     .ts = ts,
                     .record_index = static_cast<std::uint32_t>(packets_seen_),
                     .detail = ts - *last_alert});
      return;
    }
    *last_alert = ts;
    ++alerts_raised_;
    telemetry::inc(m_alerts_);
    telemetry::record(
        journal_, {.kind = telemetry::DecisionKind::alert_raised,
                   .dst24 = entry.prefix24,
                   .ts = ts,
                   .record_index = static_cast<std::uint32_t>(packets_seen_),
                   .detail = static_cast<std::int64_t>(entry.replicas),
                   .detail2 = entry.last_delta});
    if (on_alert_) {
      LoopAlert alert;
      alert.prefix24 = entry.prefix24;
      alert.first_seen = entry.first_ts;
      alert.raised_at = ts;
      alert.replicas = entry.replicas;
      alert.ttl_delta = entry.last_delta;
      on_alert_(alert);
    }
  }
}

std::vector<StreamingDetector::SuspectEntry>
StreamingDetector::suspect_entries(std::size_t max) const {
  std::vector<SuspectEntry> out;
  open_.for_each([&](const ReplicaKey&, const OpenEntry& entry) {
    if (entry.replicas < 2) return;
    out.push_back({entry.prefix24, entry.first_ts, entry.last_ts,
                   entry.replicas, entry.last_delta});
  });
  std::sort(out.begin(), out.end(),
            [](const SuspectEntry& a, const SuspectEntry& b) {
              if (a.replicas != b.replicas) return a.replicas > b.replicas;
              if (a.prefix24 != b.prefix24) return a.prefix24 < b.prefix24;
              return a.first_ts < b.first_ts;
            });
  if (max > 0 && out.size() > max) out.resize(max);
  return out;
}

StreamingDetector::Snapshot StreamingDetector::snapshot() const {
  Snapshot snap;
  snap.last_ts = last_ts_;
  snap.packets_seen = packets_seen_;
  snap.alerts_raised = alerts_raised_;
  snap.reordered = reordered_;
  snap.reorder_dropped = reorder_dropped_;
  snap.evicted = evicted_;
  snap.sampled_dropped = sampled_dropped_;
  snap.peak_open = peak_open_;
  snap.since_sweep = since_sweep_;
  snap.open.reserve(open_.size());
  open_.for_each([&](const ReplicaKey& key, const OpenEntry& entry) {
    snap.open.emplace_back(key, entry);
  });
  // Canonical order: identical state must serialize to identical bytes
  // regardless of which table slots the entries happen to occupy.
  std::sort(snap.open.begin(), snap.open.end(),
            [](const auto& a, const auto& b) {
              if (a.first.hash != b.first.hash) {
                return a.first.hash < b.first.hash;
              }
              if (a.first.len != b.first.len) return a.first.len < b.first.len;
              return a.first.normalized < b.first.normalized;
            });
  snap.holddowns.reserve(last_alert_.size());
  last_alert_.for_each([&](const net::Prefix& prefix, net::TimeNs ts) {
    snap.holddowns.emplace_back(prefix, ts);
  });
  std::sort(snap.holddowns.begin(), snap.holddowns.end());
  return snap;
}

void StreamingDetector::restore(const Snapshot& snap) {
  open_.clear();
  suspects_.clear();
  suspect_slots_.clear();
  last_alert_.clear();
  for (const auto& [key, entry] : snap.open) {
    // A duplicate key in a hand-made snapshot: keep the first.
    if (open_.find(key) != open_.kNone) continue;
    open_.reserve_one();
    const std::uint32_t s = open_.insert(key, entry, entry.last_ts);
    if (entry.replicas >= 2) {
      suspects_.emplace(entry.prefix24, tick_);
      suspect_slots_.push_back(s);
    }
  }
  for (const auto& [prefix, ts] : snap.holddowns) {
    last_alert_.emplace(prefix, ts);
    suspects_.emplace(prefix, tick_);
  }
  // The snapshot has no touch order: the FIFO is rebuilt in (last_ts,
  // snapshot order). Expiry does not depend on it; only the budget's choice
  // among entries touched at the same instant does.
  open_.sort_expiry_order();
  last_ts_ = snap.last_ts;
  packets_seen_ = snap.packets_seen;
  alerts_raised_ = snap.alerts_raised;
  reordered_ = snap.reordered;
  reorder_dropped_ = snap.reorder_dropped;
  evicted_ = snap.evicted;
  sampled_dropped_ = snap.sampled_dropped;
  peak_open_ = static_cast<std::size_t>(snap.peak_open);
  since_sweep_ = snap.since_sweep;
  telemetry::set(m_open_entries_, static_cast<std::int64_t>(open_.size()));
}

}  // namespace rloop::core

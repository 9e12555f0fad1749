// Reference streaming detector for differential tests.
//
// The original node-based engine of core::StreamingDetector, kept verbatim
// as an oracle: one std::unordered_map node per open entry, a full-table
// sweep every 32 Ki packets, and an nth_element partition for the entry
// budget. It is slow but obviously correct, so the flat slab + expiry FIFO
// engine in src/core is checked against it packet by packet (alerts,
// reorder counters, parse failures, and open-entry counts, which the flat
// engine must never exceed because it expires exactly at stream_timeout
// instead of at the next sweep).
#pragma once

#include <algorithm>
#include <cstdint>
#include <new>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/replica_key.h"
#include "core/streaming_detector.h"
#include "net/byteio.h"
#include "net/packet.h"
#include "telemetry/registry.h"

namespace rloop::testing {

class ReferenceStreamingDetector {
 public:
  using LoopAlert = core::LoopAlert;
  using StreamingConfig = core::StreamingConfig;
  using OpenEntry = core::StreamingDetector::OpenEntry;
  using AlertCallback = core::StreamingDetector::AlertCallback;
  using ReplicaKey = core::ReplicaKey;

  ReferenceStreamingDetector(StreamingConfig config, AlertCallback on_alert,
                             telemetry::Registry* registry = nullptr)
      : config_(config),
        on_alert_(std::move(on_alert)),
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

  void on_packet(net::TimeNs ts, std::span<const std::byte> bytes) {
    ++packets_seen_;
    telemetry::inc(m_packets_);
    if (packets_seen_ > 1 && ts < last_ts_) {
      if (last_ts_ - ts > config_.reorder_tolerance_ns) {
        ++reorder_dropped_;
        telemetry::inc(m_reorder_dropped_);
        return;
      }
      ts = last_ts_;
      ++reordered_;
      telemetry::inc(m_reordered_);
    }
    last_ts_ = ts;

    if (++since_sweep_ >= (1u << 15)) {
      since_sweep_ = 0;
      sweep(ts);
    }

    if (sample_n_ > 1 && bytes.size() >= net::kIpv4HeaderSize) {
      const net::Prefix dst24 =
          net::Prefix::slash24(net::Ipv4Addr(net::read_u32(bytes, 16)));
      if (!suspects_.contains(dst24) && ++sample_tick_ % sample_n_ != 0) {
        ++sampled_dropped_;
        telemetry::inc(m_sampled_);
        return;
      }
    }

    const auto parsed = net::parse_packet(bytes);
    if (!parsed) {
      telemetry::inc(m_parse_failures_);
      return;
    }
    ReplicaKey key = core::make_replica_key(bytes);

    if (config_.max_open_entries > 0 &&
        open_.size() >= config_.max_open_entries && !open_.contains(key)) {
      enforce_budget(ts);
    }
    auto [it, inserted] = open_.try_emplace(std::move(key));
    peak_open_ = std::max(peak_open_, open_.size());
    telemetry::set(m_open_entries_, static_cast<std::int64_t>(open_.size()));
    OpenEntry& entry = it->second;
    if (inserted || ts - entry.last_ts > config_.stream_timeout) {
      entry = OpenEntry{};
      entry.first_ts = ts;
      entry.last_ts = ts;
      entry.last_ttl = parsed->ip.ttl;
      entry.prefix24 = net::Prefix::slash24(parsed->ip.dst);
      return;
    }

    const int delta =
        static_cast<int>(entry.last_ttl) - static_cast<int>(parsed->ip.ttl);
    if (delta < config_.min_ttl_delta) {
      if (delta < 0) {
        entry = OpenEntry{};
        entry.first_ts = ts;
        entry.last_ts = ts;
        entry.last_ttl = parsed->ip.ttl;
        entry.prefix24 = net::Prefix::slash24(parsed->ip.dst);
      }
      return;
    }

    entry.last_ttl = parsed->ip.ttl;
    entry.last_ts = ts;
    entry.last_delta = delta;
    ++entry.replicas;
    if (entry.replicas == 2) suspects_.insert(entry.prefix24);

    if (entry.replicas >= config_.min_replicas) {
      auto [alert_it, first_alert] =
          last_alert_.try_emplace(entry.prefix24, ts);
      if (!first_alert && ts - alert_it->second < config_.alert_holddown) {
        telemetry::inc(m_suppressed_);
        return;
      }
      alert_it->second = ts;
      ++alerts_raised_;
      telemetry::inc(m_alerts_);
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

  void set_sample_keep_one_in(std::uint32_t n) { sample_n_ = n; }
  std::uint64_t packets_seen() const { return packets_seen_; }
  std::uint64_t alerts_raised() const { return alerts_raised_; }
  std::uint64_t reordered() const { return reordered_; }
  std::uint64_t reorder_dropped() const { return reorder_dropped_; }
  std::uint64_t sampled_dropped() const { return sampled_dropped_; }
  std::uint64_t evicted() const { return evicted_; }
  std::size_t open_entries() const { return open_.size(); }
  std::size_t peak_open_entries() const { return peak_open_; }

 private:
  void sweep(net::TimeNs now) {
    for (auto it = open_.begin(); it != open_.end();) {
      if (now - it->second.last_ts > config_.stream_timeout) {
        it = open_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = last_alert_.begin(); it != last_alert_.end();) {
      if (now - it->second > 2 * config_.alert_holddown) {
        it = last_alert_.erase(it);
      } else {
        ++it;
      }
    }
    suspects_.clear();
    for (const auto& [key, entry] : open_) {
      if (entry.replicas >= 2) suspects_.insert(entry.prefix24);
    }
    for (const auto& [prefix, ts] : last_alert_) suspects_.insert(prefix);
    telemetry::set(m_open_entries_, static_cast<std::int64_t>(open_.size()));
  }

  void enforce_budget(net::TimeNs now) {
    const std::size_t before = open_.size();
    for (auto it = open_.begin(); it != open_.end();) {
      if (now - it->second.last_ts > config_.stream_timeout) {
        it = open_.erase(it);
      } else {
        ++it;
      }
    }
    const std::size_t target =
        config_.max_open_entries -
        std::max<std::size_t>(1, config_.max_open_entries / 8);
    if (open_.size() > target) {
      std::vector<net::TimeNs> touched;
      touched.reserve(open_.size());
      for (const auto& [key, entry] : open_) touched.push_back(entry.last_ts);
      const std::size_t k = open_.size() - target;
      std::nth_element(touched.begin(), touched.begin() + (k - 1),
                       touched.end());
      const net::TimeNs cutoff = touched[k - 1];
      for (auto it = open_.begin();
           it != open_.end() && open_.size() > target;) {
        if (it->second.last_ts <= cutoff) {
          it = open_.erase(it);
        } else {
          ++it;
        }
      }
    }
    const std::uint64_t evicted = before - open_.size();
    evicted_ += evicted;
    telemetry::inc(m_evicted_, evicted);
    telemetry::set(m_open_entries_, static_cast<std::int64_t>(open_.size()));
  }

  StreamingConfig config_;
  AlertCallback on_alert_;
  telemetry::Counter* m_packets_ = nullptr;
  telemetry::Counter* m_parse_failures_ = nullptr;
  telemetry::Counter* m_alerts_ = nullptr;
  telemetry::Counter* m_suppressed_ = nullptr;
  telemetry::Counter* m_reordered_ = nullptr;
  telemetry::Counter* m_reorder_dropped_ = nullptr;
  telemetry::Counter* m_evicted_ = nullptr;
  telemetry::Counter* m_sampled_ = nullptr;
  telemetry::Gauge* m_open_entries_ = nullptr;
  std::unordered_map<ReplicaKey, OpenEntry, core::ReplicaKeyHash> open_;
  std::unordered_map<net::Prefix, net::TimeNs> last_alert_;
  std::unordered_set<net::Prefix> suspects_;
  net::TimeNs last_ts_ = 0;
  std::uint64_t packets_seen_ = 0;
  std::uint64_t alerts_raised_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t reorder_dropped_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t sampled_dropped_ = 0;
  std::uint32_t sample_n_ = 0;
  std::uint32_t sample_tick_ = 0;
  std::size_t peak_open_ = 0;
  std::uint32_t since_sweep_ = 0;
};

}  // namespace rloop::testing

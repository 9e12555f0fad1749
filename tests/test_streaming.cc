#include "core/streaming_detector.h"

#include <gtest/gtest.h>

#include <new>
#include <set>
#include <string>
#include <vector>

#include "core/loop_detector.h"
#include "net/pcap.h"
#include "net/pcap_mmap.h"
#include "scenarios/scenario.h"
#include "streaming_reference.h"
#include "telemetry/registry.h"
#include "trace_builder.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace rloop::core {
namespace {

using net::Ipv4Addr;
using rloop::testing::TraceBuilder;

struct Harness {
  std::vector<LoopAlert> alerts;
  StreamingDetector detector;

  explicit Harness(StreamingConfig cfg = {},
                   telemetry::Registry* registry = nullptr)
      : detector(
            cfg,
            [this](const LoopAlert& alert) { alerts.push_back(alert); },
            registry) {}

  void feed(const net::Trace& trace) {
    for (const auto& rec : trace.records()) {
      detector.on_packet(rec.ts, rec.bytes());
    }
  }
};

TEST(StreamingDetector, RaisesAlertAtThreshold) {
  TraceBuilder builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  builder.replica_stream(1000, dst, 60, 7, 6, 2, net::kMillisecond);
  Harness harness;
  harness.feed(builder.trace());

  ASSERT_EQ(harness.alerts.size(), 1u);
  const auto& alert = harness.alerts.front();
  EXPECT_EQ(alert.prefix24, net::Prefix::slash24(dst));
  EXPECT_EQ(alert.replicas, 3u);  // fires at min_replicas, not at the end
  EXPECT_EQ(alert.ttl_delta, 2);
  EXPECT_EQ(alert.first_seen, 1000);
  EXPECT_EQ(alert.raised_at, 1000 + 2 * net::kMillisecond);
}

TEST(StreamingDetector, NoAlertBelowThreshold) {
  TraceBuilder builder;
  builder.replica_stream(0, Ipv4Addr(203, 0, 113, 10), 60, 7, 2, 2, 1000);
  Harness harness;
  harness.feed(builder.trace());
  EXPECT_TRUE(harness.alerts.empty());
}

TEST(StreamingDetector, NormalTrafficRaisesNothing) {
  TraceBuilder builder;
  for (int i = 0; i < 1000; ++i) {
    builder.packet(i * 1000, Ipv4Addr(203, 0, 113, 10), 64,
                   static_cast<std::uint16_t>(i));
  }
  Harness harness;
  harness.feed(builder.trace());
  EXPECT_TRUE(harness.alerts.empty());
  EXPECT_EQ(harness.detector.packets_seen(), 1000u);
}

TEST(StreamingDetector, HolddownSuppressesRepeatAlerts) {
  TraceBuilder builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  // Two looped packets, 1 s apart: one prefix, within the hold-down.
  builder.replica_stream(0, dst, 60, 7, 10, 2, net::kMillisecond);
  builder.replica_stream(net::kSecond, dst, 60, 8, 10, 2, net::kMillisecond);
  // A third after the hold-down expires.
  builder.replica_stream(2 * net::kMinute, dst, 60, 9, 10, 2,
                         net::kMillisecond);
  Harness harness;
  harness.feed(builder.trace());
  EXPECT_EQ(harness.alerts.size(), 2u);
  EXPECT_EQ(harness.detector.alerts_raised(), 2u);
}

TEST(StreamingDetector, DistinctPrefixesAlertIndependently) {
  TraceBuilder builder;
  builder.replica_stream(0, Ipv4Addr(203, 0, 113, 10), 60, 7, 5, 2, 1000);
  builder.replica_stream(100, Ipv4Addr(198, 18, 0, 10), 60, 8, 5, 2, 1000);
  Harness harness;
  harness.feed(builder.trace());
  EXPECT_EQ(harness.alerts.size(), 2u);
}

TEST(StreamingDetector, MemoryBoundedUnderChurn) {
  StreamingConfig cfg;
  cfg.stream_timeout = net::kSecond;
  Harness harness(cfg);
  // 300k distinct packets over 300 s: table must stay near (rate x timeout)
  // = ~1000 entries plus the sweep interval, far below the packet count.
  TraceBuilder builder;
  net::TimeNs t = 0;
  std::uint16_t id = 0;
  for (int i = 0; i < 300'000; ++i) {
    builder.packet(t, Ipv4Addr(203, 0, 113, 10), 64, id++);
    t += net::kMillisecond;
    if (builder.size() >= 50'000) {
      harness.feed(builder.trace());
      builder = TraceBuilder();
      // keep timestamps increasing across chunks
      builder.packet(t, Ipv4Addr(198, 18, 0, 1), 64, id++);
      t += net::kMillisecond;
    }
  }
  harness.feed(builder.trace());
  EXPECT_LT(harness.detector.open_entries(), 50'000u);
}

TEST(StreamingDetector, TelemetryCountersMatchCallbacks) {
  TraceBuilder builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  // Same shape as HolddownSuppressesRepeatAlerts: 2 alerts fire, every
  // other threshold crossing is suppressed by the hold-down.
  builder.replica_stream(0, dst, 60, 7, 10, 2, net::kMillisecond);
  builder.replica_stream(net::kSecond, dst, 60, 8, 10, 2, net::kMillisecond);
  builder.replica_stream(2 * net::kMinute, dst, 60, 9, 10, 2,
                         net::kMillisecond);

  telemetry::Registry reg;
  Harness harness({}, &reg);
  harness.feed(builder.trace());

  const auto alerts = reg.counter("rloop_streaming_alerts_total")->value();
  const auto suppressed =
      reg.counter("rloop_streaming_holddown_suppressed_total")->value();
  EXPECT_EQ(alerts, harness.alerts.size());
  EXPECT_EQ(alerts, harness.detector.alerts_raised());
  // Each 10-replica stream crosses the min_replicas=3 threshold on
  // observations 3..10 (8 crossings); every crossing either alerts or is
  // held down.
  EXPECT_EQ(alerts + suppressed, 3u * 8u);
  EXPECT_EQ(reg.counter("rloop_streaming_packets_total")->value(),
            harness.detector.packets_seen());
  EXPECT_EQ(static_cast<std::size_t>(
                reg.gauge("rloop_streaming_open_entries")->value()),
            harness.detector.open_entries());
}

// A timestamp regression is capture jitter, not a programming error: with
// zero tolerance (the default) the late packet is dropped and counted —
// never thrown. A daemon fed by real capture cannot afford an exception.
TEST(StreamingDetector, DropsBackwardsTimeInsteadOfThrowing) {
  TraceBuilder builder;
  builder.packet(1000, Ipv4Addr(203, 0, 113, 10), 64, 1);
  Harness harness;
  harness.feed(builder.trace());
  TraceBuilder earlier;
  earlier.packet(500, Ipv4Addr(203, 0, 113, 10), 64, 2);
  EXPECT_NO_THROW(harness.feed(earlier.trace()));
  EXPECT_EQ(harness.detector.reorder_dropped(), 1u);
  EXPECT_EQ(harness.detector.reordered(), 0u);
  EXPECT_EQ(harness.detector.packets_seen(), 2u);
}

// Within reorder_tolerance_ns the packet is clamped to the newest seen
// timestamp and still processed: a jittered replica keeps counting toward
// the alert threshold.
TEST(StreamingDetector, ClampsRegressionsWithinTolerance) {
  TraceBuilder builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  builder.replica_stream(net::kSecond, dst, 60, 7, 3, 2, net::kMillisecond);
  const auto& records = builder.trace().records();
  ASSERT_EQ(records.size(), 3u);

  StreamingConfig cfg;
  cfg.reorder_tolerance_ns = 10 * net::kMillisecond;
  telemetry::Registry reg;
  Harness harness(cfg, &reg);
  // Deliver the third replica 2 ms *behind* the second: inside tolerance.
  harness.detector.on_packet(records[0].ts, records[0].bytes());
  harness.detector.on_packet(records[1].ts, records[1].bytes());
  harness.detector.on_packet(records[1].ts - 2 * net::kMillisecond,
                             records[2].bytes());

  EXPECT_EQ(harness.detector.reordered(), 1u);
  EXPECT_EQ(harness.detector.reorder_dropped(), 0u);
  ASSERT_EQ(harness.alerts.size(), 1u);  // clamped replica crossed threshold
  // The clamped packet's effective timestamp is the newest seen one.
  EXPECT_EQ(harness.alerts.front().raised_at, records[1].ts);
  EXPECT_EQ(reg.counter("rloop_streaming_reordered_total")->value(), 1u);
  EXPECT_EQ(reg.counter("rloop_streaming_reorder_dropped_total")->value(), 0u);
}

TEST(StreamingDetector, DropsRegressionsBeyondTolerance) {
  TraceBuilder builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  builder.replica_stream(net::kSecond, dst, 60, 7, 3, 2, net::kMillisecond);
  const auto& records = builder.trace().records();

  StreamingConfig cfg;
  cfg.reorder_tolerance_ns = 10 * net::kMillisecond;
  telemetry::Registry reg;
  Harness harness(cfg, &reg);
  harness.detector.on_packet(records[0].ts, records[0].bytes());
  harness.detector.on_packet(records[1].ts, records[1].bytes());
  // 50 ms behind: beyond tolerance, dropped unprocessed.
  EXPECT_NO_THROW(harness.detector.on_packet(
      records[1].ts - 50 * net::kMillisecond, records[2].bytes()));

  EXPECT_EQ(harness.detector.reorder_dropped(), 1u);
  EXPECT_TRUE(harness.alerts.empty());  // the dropped replica never counted
  EXPECT_EQ(harness.detector.packets_seen(), 3u);
  EXPECT_EQ(reg.counter("rloop_streaming_reorder_dropped_total")->value(),
            1u);
}

// Boundary: a regression of *exactly* reorder_tolerance_ns is still inside
// the window — clamped, counted as reordered, and processed. The comparison
// is strict (`last_ts - ts > tolerance` drops), so the fence post belongs to
// the clamp side.
TEST(StreamingDetector, ExactlyAtToleranceClamps) {
  TraceBuilder builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  builder.replica_stream(net::kSecond, dst, 60, 7, 3, 2, net::kMillisecond);
  const auto& records = builder.trace().records();

  StreamingConfig cfg;
  cfg.reorder_tolerance_ns = 10 * net::kMillisecond;
  telemetry::Registry reg;
  Harness harness(cfg, &reg);
  harness.detector.on_packet(records[0].ts, records[0].bytes());
  harness.detector.on_packet(records[1].ts, records[1].bytes());
  harness.detector.on_packet(records[1].ts - cfg.reorder_tolerance_ns,
                             records[2].bytes());

  EXPECT_EQ(harness.detector.reordered(), 1u);
  EXPECT_EQ(harness.detector.reorder_dropped(), 0u);
  ASSERT_EQ(harness.alerts.size(), 1u);
  EXPECT_EQ(harness.alerts.front().raised_at, records[1].ts);
  EXPECT_EQ(reg.counter("rloop_streaming_reordered_total")->value(), 1u);
  EXPECT_EQ(reg.counter("rloop_streaming_reorder_dropped_total")->value(), 0u);
}

// Boundary: one nanosecond beyond the tolerance flips the verdict from
// clamp to drop.
TEST(StreamingDetector, OneTickBeyondToleranceDrops) {
  TraceBuilder builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  builder.replica_stream(net::kSecond, dst, 60, 7, 3, 2, net::kMillisecond);
  const auto& records = builder.trace().records();

  StreamingConfig cfg;
  cfg.reorder_tolerance_ns = 10 * net::kMillisecond;
  telemetry::Registry reg;
  Harness harness(cfg, &reg);
  harness.detector.on_packet(records[0].ts, records[0].bytes());
  harness.detector.on_packet(records[1].ts, records[1].bytes());
  harness.detector.on_packet(records[1].ts - cfg.reorder_tolerance_ns - 1,
                             records[2].bytes());

  EXPECT_EQ(harness.detector.reordered(), 0u);
  EXPECT_EQ(harness.detector.reorder_dropped(), 1u);
  EXPECT_TRUE(harness.alerts.empty());
  EXPECT_EQ(reg.counter("rloop_streaming_reordered_total")->value(), 0u);
  EXPECT_EQ(reg.counter("rloop_streaming_reorder_dropped_total")->value(),
            1u);
}

// Boundary: tolerance zero drops every regression, even by a single
// nanosecond, while an equal timestamp is not a regression at all and is
// processed normally.
TEST(StreamingDetector, ZeroToleranceDropsAllRegressions) {
  TraceBuilder builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  builder.replica_stream(net::kSecond, dst, 60, 7, 4, 2, net::kMillisecond);
  const auto& records = builder.trace().records();

  StreamingConfig cfg;
  cfg.reorder_tolerance_ns = 0;
  Harness harness(cfg);
  harness.detector.on_packet(records[0].ts, records[0].bytes());
  // Equal timestamp: ts < last_ts is false, so no regression machinery runs.
  harness.detector.on_packet(records[0].ts, records[1].bytes());
  // 1 ns behind: a regression, and with zero tolerance it is dropped.
  harness.detector.on_packet(records[0].ts - 1, records[2].bytes());
  // Far behind: also dropped.
  harness.detector.on_packet(records[0].ts - net::kSecond,
                             records[3].bytes());

  EXPECT_EQ(harness.detector.reordered(), 0u);
  EXPECT_EQ(harness.detector.reorder_dropped(), 2u);
  EXPECT_EQ(harness.detector.packets_seen(), 4u);
  // Only the two processed replicas count: below min_replicas, no alert.
  EXPECT_TRUE(harness.alerts.empty());
}

// The hard entry budget: peak resident entries never exceed
// max_open_entries no matter how many distinct packets flood in.
TEST(StreamingDetector, EntryBudgetCapsResidentEntries) {
  StreamingConfig cfg;
  cfg.max_open_entries = 1000;
  telemetry::Registry reg;
  Harness harness(cfg, &reg);

  TraceBuilder builder;
  net::TimeNs t = 0;
  std::uint16_t id = 0;
  for (int chunk = 0; chunk < 5; ++chunk) {
    builder = TraceBuilder();
    for (int i = 0; i < 10'000; ++i) {
      // Distinct dst + distinct id: every packet opens a fresh entry.
      builder.packet(t, Ipv4Addr(10, static_cast<std::uint8_t>(i >> 8),
                                 static_cast<std::uint8_t>(i), 1),
                     64, id++);
      t += net::kMicrosecond;
    }
    harness.feed(builder.trace());
  }

  EXPECT_LE(harness.detector.peak_open_entries(), 1000u);
  EXPECT_LE(harness.detector.open_entries(), 1000u);
  EXPECT_GT(harness.detector.evicted(), 0u);
  EXPECT_EQ(reg.counter("rloop_streaming_evicted_total")->value(),
            harness.detector.evicted());
}

// LRU-ish eviction keeps recently-touched entries: a replica stream that is
// actively counting survives budget churn from a flood of one-shot entries
// and still alerts.
TEST(StreamingDetector, ActiveStreamSurvivesBudgetChurn) {
  StreamingConfig cfg;
  cfg.max_open_entries = 500;
  Harness harness(cfg);

  TraceBuilder stream_builder;
  const Ipv4Addr dst(203, 0, 113, 10);
  stream_builder.replica_stream(0, dst, 60, 7, 10, 2, net::kMillisecond);
  const auto& replicas = stream_builder.trace().records();

  TraceBuilder noise_builder;
  net::TimeNs t = 0;
  std::uint16_t id = 1000;
  for (int i = 0; i < 5'000; ++i) {
    noise_builder.packet(t, Ipv4Addr(10, static_cast<std::uint8_t>(i >> 8),
                                     static_cast<std::uint8_t>(i), 1),
                         64, id++);
    t += net::kMicrosecond;
  }
  const auto& noise = noise_builder.trace().records();

  // Interleave: one replica touch every 50 noise packets keeps the stream
  // entry recent enough to dodge the oldest-1/8 eviction sweeps.
  std::size_t r = 0;
  for (std::size_t i = 0; i < noise.size(); ++i) {
    if (i % 50 == 0 && r < replicas.size()) {
      harness.detector.on_packet(noise[i].ts, replicas[r++].bytes());
    }
    harness.detector.on_packet(noise[i].ts, noise[i].bytes());
  }

  EXPECT_GE(harness.alerts.size(), 1u)
      << "budget churn evicted an actively-counting stream";
  EXPECT_LE(harness.detector.peak_open_entries(), 500u);
}

TEST(StreamingDetector, AgreesWithOfflineOnCleanStreams) {
  // Every offline-validated loop prefix should also be alerted online.
  TraceBuilder builder;
  builder.replica_stream(0, Ipv4Addr(203, 0, 113, 10), 60, 7, 10, 2, 1000);
  builder.replica_stream(net::kSecond, Ipv4Addr(198, 18, 0, 10), 100, 8, 20,
                         3, 1000);
  for (int i = 0; i < 100; ++i) {
    builder.packet(2 * net::kSecond + i * 1000, Ipv4Addr(10, 9, 8, 7), 64,
                   static_cast<std::uint16_t>(i));
  }

  const auto offline = detect_loops(builder.trace());
  Harness harness;
  harness.feed(builder.trace());

  ASSERT_EQ(offline.loops.size(), 2u);
  ASSERT_EQ(harness.alerts.size(), 2u);
  for (const auto& loop : offline.loops) {
    bool found = false;
    for (const auto& alert : harness.alerts) {
      if (alert.prefix24 == loop.prefix24) found = true;
    }
    EXPECT_TRUE(found) << loop.prefix24.to_string();
  }
}

// --- flat-engine properties ------------------------------------------------

// One delivery to a detector: the timestamp it is fed with (which may run
// backwards) and the captured bytes.
struct Packet {
  net::TimeNs ts = 0;
  std::vector<std::byte> bytes;
};

std::vector<Packet> packets_of(const net::Trace& trace) {
  std::vector<Packet> out;
  out.reserve(trace.size());
  for (const auto& rec : trace.records()) {
    const auto b = rec.bytes();
    out.push_back({rec.ts, std::vector<std::byte>(b.begin(), b.end())});
  }
  return out;
}

std::vector<Packet> golden_packets() {
  return packets_of(
      net::read_pcap_fast(std::string(RLOOP_GOLDEN_DIR) + "/golden_trace.pcap"));
}

// Replica streams of random shape over `prefixes` /24s (few hosts and IP
// IDs, so keys collide across streams), interleaved with one-off packets.
std::vector<Packet> random_streams(util::Rng& rng, int streams,
                                   net::TimeNs span, int prefixes = 4) {
  TraceBuilder builder;
  for (int i = 0; i < streams; ++i) {
    const auto p = rng.uniform_int(0, prefixes - 1);
    const auto dst = Ipv4Addr(203, static_cast<std::uint8_t>(p >> 8),
                              static_cast<std::uint8_t>(p),
                              static_cast<std::uint8_t>(rng.uniform_int(1, 4)));
    const auto start = static_cast<net::TimeNs>(rng.uniform_int(0, span));
    const auto ip_id = static_cast<std::uint16_t>(rng.uniform_int(0, 7));
    if (rng.bernoulli(0.4)) {
      builder.packet(start, dst,
                     static_cast<std::uint8_t>(rng.uniform_int(2, 255)), ip_id);
      continue;
    }
    builder.replica_stream(
        start, dst, static_cast<std::uint8_t>(rng.uniform_int(40, 250)), ip_id,
        static_cast<int>(rng.uniform_int(2, 12)),
        static_cast<int>(rng.uniform_int(-1, 4)),
        rng.uniform_int(50, 5'000) * net::kMicrosecond);
  }
  return packets_of(builder.trace());
}

std::uint8_t ttl_of(const Packet& p) {
  return p.bytes.size() > 8 ? std::to_integer<std::uint8_t>(p.bytes[8]) : 0;
}
void set_ttl(Packet& p, int ttl) {
  if (p.bytes.size() > 8) p.bytes[8] = static_cast<std::byte>(ttl & 0xff);
}

// Seeded mutations aimed at the detector's edge cases.
void mutate(std::vector<Packet>& pkts, util::Rng& rng,
            const StreamingConfig& cfg, int mutations) {
  for (int m = 0; m < mutations && !pkts.empty(); ++m) {
    const auto n = static_cast<std::int64_t>(pkts.size());
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    Packet copy = pkts[i];
    const auto op = rng.uniform_int(0, 9);
    switch (op) {
      case 0:  // TTL collision
        set_ttl(pkts[j], ttl_of(pkts[i]));
        break;
      case 1:  // IP-ID collision
        if (pkts[i].bytes.size() > 5 && pkts[j].bytes.size() > 5) {
          pkts[j].bytes[4] = pkts[i].bytes[4];
          pkts[j].bytes[5] = pkts[i].bytes[5];
        }
        break;
      case 2:    // equal-TTL duplicate burst: not evidence
      case 3: {  // -1-TTL burst: adjacent hops, not evidence either
        const int step = op == 2 ? 0 : 1;
        std::vector<Packet> burst;
        for (int k = static_cast<int>(rng.uniform_int(1, 4)); k > 0; --k) {
          set_ttl(copy, ttl_of(copy) - step);
          burst.push_back(copy);
        }
        pkts.insert(pkts.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                    burst.begin(), burst.end());
        break;
      }
      case 4:  // TTL increase: resets the stream
        set_ttl(copy, ttl_of(copy) + static_cast<int>(rng.uniform_int(1, 5)));
        pkts.insert(pkts.begin() + static_cast<std::ptrdiff_t>(i) + 1, copy);
        break;
      case 5:  // reorder inside the tolerance (clamped)
        pkts[i].ts -= rng.uniform_int(0, cfg.reorder_tolerance_ns);
        break;
      case 6:  // reorder beyond the tolerance (dropped)
        pkts[i].ts -= cfg.reorder_tolerance_ns + 1 +
                      rng.uniform_int(0, cfg.reorder_tolerance_ns);
        break;
      case 7:  // truncated capture
        pkts[i].bytes.resize(static_cast<std::size_t>(rng.uniform_int(0, 39)));
        break;
      case 8:  // not IPv4: wrong version, short IHL or total_length
        if (pkts[i].bytes.size() >= 4) {
          switch (rng.uniform_int(0, 2)) {
            case 0: pkts[i].bytes[0] = std::byte{0x65}; break;
            case 1: pkts[i].bytes[0] = std::byte{0x44}; break;
            default:
              pkts[i].bytes[2] = std::byte{0};
              pkts[i].bytes[3] = std::byte{19};
          }
        }
        break;
      default: {  // a replica exactly stream_timeout (+1 ns) later, with
                  // everything after it shifted by the same gap
        const net::TimeNs gap = cfg.stream_timeout + rng.uniform_int(0, 1);
        set_ttl(copy, ttl_of(copy) - 2);
        copy.ts += gap;
        for (std::size_t k = i + 1; k < pkts.size(); ++k) pkts[k].ts += gap;
        pkts.insert(pkts.begin() + static_cast<std::ptrdiff_t>(i) + 1, copy);
      }
    }
  }
}

std::uint64_t counter(telemetry::Registry& reg, const char* name) {
  const auto* c = reg.counter(name);
  return c ? c->value() : 0;
}

// Feeds `pkts` to the flat engine and the reference in lockstep. With no
// entry budget they must agree on every alert and counter, with overload
// sampling off (`sample_n` 0) or on; the flat engine may only track fewer
// entries (it expires exactly at stream_timeout, the reference at its next
// sweep).
void expect_matches_reference(const std::vector<Packet>& pkts,
                              const StreamingConfig& cfg,
                              std::uint32_t sample_n) {
  ASSERT_EQ(cfg.max_open_entries, 0u);
  std::vector<std::string> got;
  std::vector<std::string> want;
  telemetry::Registry got_reg;
  telemetry::Registry want_reg;
  StreamingDetector flat(
      cfg,
      [&](const LoopAlert& a) { got.push_back(scenarios::render_alert(a)); },
      &got_reg);
  rloop::testing::ReferenceStreamingDetector ref(
      cfg,
      [&](const LoopAlert& a) { want.push_back(scenarios::render_alert(a)); },
      &want_reg);
  flat.set_sample_keep_one_in(sample_n);
  ref.set_sample_keep_one_in(sample_n);
  const auto* gauge = got_reg.gauge("rloop_streaming_open_entries");
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    flat.on_packet(pkts[i].ts, pkts[i].bytes);
    ref.on_packet(pkts[i].ts, pkts[i].bytes);
    ASSERT_EQ(got.size(), want.size()) << "after packet " << i;
    if (!got.empty()) {
      ASSERT_EQ(got.back(), want.back()) << "packet " << i;
    }
    ASSERT_LE(flat.open_entries(), ref.open_entries()) << "packet " << i;
    ASSERT_EQ(static_cast<std::size_t>(gauge->value()), flat.open_entries())
        << "packet " << i;
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(flat.packets_seen(), ref.packets_seen());
  EXPECT_EQ(flat.alerts_raised(), ref.alerts_raised());
  EXPECT_EQ(flat.reordered(), ref.reordered());
  EXPECT_EQ(flat.reorder_dropped(), ref.reorder_dropped());
  EXPECT_EQ(flat.sampled_dropped(), ref.sampled_dropped());
  for (const char* name : {"rloop_streaming_parse_failures_total",
                           "rloop_streaming_holddown_suppressed_total",
                           "rloop_streaming_reordered_total",
                           "rloop_streaming_reorder_dropped_total"}) {
    EXPECT_EQ(counter(got_reg, name), counter(want_reg, name)) << name;
  }
}

std::vector<StreamingConfig> differential_configs() {
  StreamingConfig daemon_like;
  daemon_like.reorder_tolerance_ns = 100 * net::kMillisecond;
  StreamingConfig tight;
  tight.stream_timeout = 200 * net::kMillisecond;
  tight.reorder_tolerance_ns = 20 * net::kMillisecond;
  tight.alert_holddown = 2 * net::kSecond;
  StreamingConfig tightest;
  tightest.stream_timeout = 5 * net::kMillisecond;
  tightest.reorder_tolerance_ns = net::kMillisecond;
  tightest.alert_holddown = 100 * net::kMillisecond;
  tightest.min_replicas = 2;
  return {daemon_like, tight, tightest};
}

void run_differential(std::uint64_t seed, int rounds, int long_packets) {
  util::Rng rng(seed);
  const auto golden = golden_packets();
  ASSERT_FALSE(golden.empty());
  const auto configs = differential_configs();
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      SCOPED_TRACE("round " + std::to_string(round) + " config " +
                   std::to_string(c));
      auto pkts = round % 2 == 0
                      ? golden
                      : random_streams(rng, 200, 2 * net::kSecond);
      mutate(pkts, rng, configs[c], static_cast<int>(rng.uniform_int(1, 60)));
      expect_matches_reference(pkts, configs[c], 0);
      expect_matches_reference(pkts, configs[c], 3);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // One trace long enough for several 32 Ki-packet ticks.
  std::vector<Packet> long_trace;
  while (static_cast<int>(long_trace.size()) < long_packets) {
    auto part = random_streams(rng, 2'000, 3 * net::kSecond, 3'000);
    const net::TimeNs base = long_trace.empty() ? 0 : long_trace.back().ts;
    for (auto& p : part) p.ts += base;
    long_trace.insert(long_trace.end(), part.begin(), part.end());
  }
  for (const auto& cfg : configs) {
    auto pkts = long_trace;
    mutate(pkts, rng, cfg, 200);
    expect_matches_reference(pkts, cfg, 0);
    expect_matches_reference(pkts, cfg, 4);
  }
}

TEST(StreamingDifferential, MatchesReferenceSmallBudget) {
  run_differential(20'020, 6, 70'000);
}

// Slow tier (a separate ctest entry).
TEST(StreamingDifferential, MatchesReferenceLargeBudget) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_differential(seed, 60, 140'000);
  }
}

// After every packet, the open table holds exactly the keys touched within
// stream_timeout: expiry is exact, not deferred to a sweep.
TEST(StreamingDetector, OpenEntriesAreExactlyTheWindow) {
  StreamingConfig cfg;
  cfg.stream_timeout = 50 * net::kMillisecond;
  Harness harness(cfg);
  util::Rng rng(99);
  struct Key {
    Ipv4Addr dst;
    std::uint16_t ip_id = 0;
    int ttl = 0;
  };
  std::vector<Key> keys;
  std::set<std::pair<net::TimeNs, std::size_t>> window;  // (last touch, key)
  std::vector<net::TimeNs> last_touch;
  net::TimeNs t = 0;
  for (int i = 0; i < 20'000; ++i) {
    t += rng.uniform_int(0, 2 * net::kMillisecond);
    std::size_t k = keys.size();
    if (!keys.empty() && rng.bernoulli(0.5)) {
      // A replica (TTL two lower) of a recently used key.
      const auto back = std::min<std::int64_t>(
          60, static_cast<std::int64_t>(keys.size()) - 1);
      k = keys.size() - 1 - static_cast<std::size_t>(rng.uniform_int(0, back));
      if (keys[k].ttl < 3) k = keys.size();
    }
    if (k == keys.size()) {
      keys.push_back({Ipv4Addr(10, static_cast<std::uint8_t>(k >> 16),
                               static_cast<std::uint8_t>(k >> 8), 1),
                      static_cast<std::uint16_t>(k), 255});
      last_touch.push_back(-1);
    } else {
      keys[k].ttl -= 2;
      window.erase({last_touch[k], k});
    }
    TraceBuilder one;
    one.packet(t, keys[k].dst, static_cast<std::uint8_t>(keys[k].ttl),
               keys[k].ip_id);
    harness.feed(one.trace());
    last_touch[k] = t;
    window.insert({t, k});
    while (t - window.begin()->first > cfg.stream_timeout) {
      window.erase(window.begin());
    }
    ASSERT_EQ(harness.detector.open_entries(), window.size()) << "packet " << i;
  }
}

void expect_same_snapshot(const StreamingDetector::Snapshot& a,
                          const StreamingDetector::Snapshot& b) {
  EXPECT_EQ(a.last_ts, b.last_ts);
  EXPECT_EQ(a.packets_seen, b.packets_seen);
  EXPECT_EQ(a.alerts_raised, b.alerts_raised);
  EXPECT_EQ(a.reordered, b.reordered);
  EXPECT_EQ(a.reorder_dropped, b.reorder_dropped);
  EXPECT_EQ(a.evicted, b.evicted);
  EXPECT_EQ(a.sampled_dropped, b.sampled_dropped);
  EXPECT_EQ(a.peak_open, b.peak_open);
  EXPECT_EQ(a.since_sweep, b.since_sweep);
  ASSERT_EQ(a.open.size(), b.open.size());
  for (std::size_t i = 0; i < a.open.size(); ++i) {
    const auto& [ka, ea] = a.open[i];
    const auto& [kb, eb] = b.open[i];
    EXPECT_TRUE(ka == kb) << "open entry " << i;
    EXPECT_EQ(ea.first_ts, eb.first_ts);
    EXPECT_EQ(ea.last_ts, eb.last_ts);
    EXPECT_EQ(ea.last_ttl, eb.last_ttl);
    EXPECT_EQ(ea.replicas, eb.replicas);
    EXPECT_EQ(ea.last_delta, eb.last_delta);
    EXPECT_EQ(ea.prefix24, eb.prefix24);
  }
  EXPECT_EQ(a.holddowns, b.holddowns);
}

// Checkpoint at a seeded cut, restore into a fresh detector, finish the
// trace: alerts and the final state equal an uninterrupted run's.
TEST(StreamingDetector, RestoreAtRandomCutMatchesUninterruptedRun) {
  util::Rng rng(4242);
  StreamingConfig cfg;
  cfg.stream_timeout = 50 * net::kMillisecond;
  cfg.reorder_tolerance_ns = 10 * net::kMillisecond;
  cfg.alert_holddown = net::kSecond;
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    auto pkts = trial % 2 == 0 ? golden_packets()
                               : random_streams(rng, 400, 2 * net::kSecond);
    mutate(pkts, rng, cfg, 20);
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(pkts.size()) - 1));

    Harness whole(cfg);
    for (const auto& p : pkts) whole.detector.on_packet(p.ts, p.bytes);

    Harness first(cfg);
    for (std::size_t i = 0; i < cut; ++i) {
      first.detector.on_packet(pkts[i].ts, pkts[i].bytes);
    }
    Harness second(cfg);
    second.detector.restore(first.detector.snapshot());
    for (std::size_t i = cut; i < pkts.size(); ++i) {
      second.detector.on_packet(pkts[i].ts, pkts[i].bytes);
    }
    std::vector<std::string> joined;
    for (const auto& a : first.alerts) {
      joined.push_back(scenarios::render_alert(a));
    }
    for (const auto& a : second.alerts) {
      joined.push_back(scenarios::render_alert(a));
    }
    std::vector<std::string> expected;
    for (const auto& a : whole.alerts) {
      expected.push_back(scenarios::render_alert(a));
    }
    EXPECT_EQ(joined, expected);
    expect_same_snapshot(second.detector.snapshot(), whole.detector.snapshot());
  }
}

// Budget eviction pops the expiry FIFO: oldest touch first, and a stale
// record (its entry was touched again later) evicts nothing.
TEST(StreamingDetector, BudgetEvictsOldestTouchFirst) {
  StreamingConfig cfg;
  cfg.max_open_entries = 8;  // watermark: 8 - 8/8 = 7
  telemetry::Registry reg;
  Harness harness(cfg, &reg);
  auto key_of = [](const net::Trace& trace) {
    return make_replica_key(trace.records().front().bytes());
  };
  auto has = [&](const ReplicaKey& key) {
    for (const auto& [k, e] : harness.detector.snapshot().open) {
      if (k == key) return true;
    }
    return false;
  };
  std::vector<ReplicaKey> keys;
  net::TimeNs t = net::kMicrosecond;
  auto send = [&](std::uint16_t id, std::uint8_t ttl) {
    TraceBuilder one;
    one.packet(t, Ipv4Addr(10, 0, static_cast<std::uint8_t>(id), 1), ttl, id);
    t += net::kMicrosecond;
    harness.feed(one.trace());
    EXPECT_LE(harness.detector.peak_open_entries(), cfg.max_open_entries);
    return key_of(one.trace());
  };
  for (std::uint16_t id = 0; id < 8; ++id) keys.push_back(send(id, 64));
  EXPECT_EQ(harness.detector.open_entries(), 8u);
  EXPECT_EQ(harness.detector.evicted(), 0u);
  // Replica of entry 0: its first FIFO record is now stale.
  send(0, 62);
  // A ninth key crosses the budget: entry 0's stale record is skipped and
  // entry 1, the oldest touch, is the one evicted.
  keys.push_back(send(8, 64));
  EXPECT_EQ(harness.detector.evicted(), 1u);
  EXPECT_TRUE(has(keys[0]));
  EXPECT_FALSE(has(keys[1]));
  for (std::size_t k = 2; k < keys.size(); ++k) EXPECT_TRUE(has(keys[k])) << k;

  // A burst far over budget keeps only the most recent touches.
  for (std::uint16_t id = 100; id < 200; ++id) keys.push_back(send(id, 64));
  EXPECT_LE(harness.detector.open_entries(), cfg.max_open_entries);
  for (std::size_t k = 0; k + cfg.max_open_entries < keys.size(); ++k) {
    EXPECT_FALSE(has(keys[k])) << k;
  }
  EXPECT_TRUE(has(keys.back()));
  EXPECT_EQ(harness.detector.evicted(),
            keys.size() - harness.detector.open_entries());
  EXPECT_EQ(reg.counter("rloop_streaming_evicted_total")->value(),
            harness.detector.evicted());
}

// A std::bad_alloc out of on_packet (failpoint or real) leaves the
// detector exactly as if it had never seen the packet, and it goes on to
// produce what a detector that never saw the packet produces.
TEST(StreamingDetector, AllocationFailureLeavesStateUnchanged) {
#if !defined(RLOOP_FAILPOINTS)
  GTEST_SKIP() << "failpoint sites compiled out (-DRLOOP_FAILPOINTS=OFF)";
#else
  const auto pkts = golden_packets();
  StreamingConfig cfg;
  cfg.stream_timeout = 200 * net::kMillisecond;
  cfg.alert_holddown = 2 * net::kSecond;
  auto& failpoints = util::FailpointRegistry::instance();
  for (const char* site : {"streaming.insert", "flat_map.grow"}) {
    for (const int nth : {1, 2, 3, 4, 5, 7, 40, 300}) {
      SCOPED_TRACE(std::string(site) + "@nth:" + std::to_string(nth));
      Harness armed(cfg);
      std::string error;
      ASSERT_TRUE(failpoints.arm(site, "trip@nth:" + std::to_string(nth),
                                 &error))
          << error;
      std::size_t thrown_at = pkts.size();
      for (std::size_t i = 0; i < pkts.size() && thrown_at == pkts.size();
           ++i) {
        try {
          armed.detector.on_packet(pkts[i].ts, pkts[i].bytes);
        } catch (const std::bad_alloc&) {
          thrown_at = i;
        }
      }
      failpoints.disarm_all();
      if (thrown_at == pkts.size()) continue;  // site not reached nth times

      Harness never(cfg);
      for (std::size_t i = 0; i < thrown_at; ++i) {
        never.detector.on_packet(pkts[i].ts, pkts[i].bytes);
      }
      expect_same_snapshot(armed.detector.snapshot(),
                           never.detector.snapshot());
      for (std::size_t i = thrown_at + 1; i < pkts.size(); ++i) {
        armed.detector.on_packet(pkts[i].ts, pkts[i].bytes);
        never.detector.on_packet(pkts[i].ts, pkts[i].bytes);
      }
      EXPECT_EQ(armed.alerts.size(), never.alerts.size());
      expect_same_snapshot(armed.detector.snapshot(),
                           never.detector.snapshot());
    }
  }
#endif
}

}  // namespace
}  // namespace rloop::core

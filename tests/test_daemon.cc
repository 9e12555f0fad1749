// End-to-end tests of the rloopd daemon core: differential equivalence with
// a directly-fed StreamingDetector on the golden trace, exact drop
// accounting under a 10x overload burst, bounded memory under a soak of
// 10^6 packets across >10^5 distinct /24s (serial and threaded), and the
// stop/reload lifecycle.
#include "daemon/daemon.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/streaming_detector.h"
#include "json_lite.h"
#include "net/packet.h"
#include "net/pcap.h"
#include "net/pcap_mmap.h"
#include "telemetry/exporter.h"

namespace rloop::daemon {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(RLOOP_GOLDEN_DIR) + "/" + name;
}

// Renders an alert to one canonical line so "byte-identical alert set"
// is a string comparison.
std::string render(const core::LoopAlert& a) {
  std::ostringstream out;
  out << a.prefix24.to_string() << " first=" << a.first_seen
      << " raised=" << a.raised_at << " replicas=" << a.replicas
      << " delta=" << a.ttl_delta;
  return out.str();
}

std::vector<std::string> feed_directly(const net::Trace& trace,
                                       const core::StreamingConfig& cfg) {
  std::vector<std::string> alerts;
  core::StreamingDetector detector(
      cfg, [&](const core::LoopAlert& a) { alerts.push_back(render(a)); });
  for (const auto& rec : trace.records()) {
    detector.on_packet(rec.ts, rec.bytes());
  }
  return alerts;
}

// Generates `count` distinct UDP packets spread over `prefixes` /24s,
// 1 us apart, on the fly (no pacing: the producer runs flat out).
class SyntheticSource : public PacketSource {
 public:
  SyntheticSource(std::size_t count, std::size_t prefixes)
      : count_(count), prefixes_(prefixes) {}

  bool next(net::TraceRecord& out) override {
    if (i_ >= count_) return false;
    const std::size_t p = i_ % prefixes_;
    const auto pkt = net::make_udp_packet(
        net::Ipv4Addr(198, 51, 100, 1),
        net::Ipv4Addr(static_cast<std::uint8_t>(11 + (p >> 16)),
                      static_cast<std::uint8_t>(p >> 8),
                      static_cast<std::uint8_t>(p), 1),
        1000, 2000, 64, 64, static_cast<std::uint16_t>(i_));
    out.ts = static_cast<net::TimeNs>(i_) * net::kMicrosecond;
    out.wire_len = pkt.ip.total_length;
    out.cap_len =
        static_cast<std::uint8_t>(net::serialize_packet(pkt, out.data));
    ++i_;
    return true;
  }
  std::string name() const override { return "synthetic"; }
  std::size_t expected_packets() const override { return count_; }

 private:
  std::size_t count_;
  std::size_t prefixes_;
  std::size_t i_ = 0;
};

// The acceptance bar: the daemon path (ring, producer thread, batched
// epochs) must produce the byte-identical alert sequence to a
// StreamingDetector fed directly, for both ring and inline modes.
TEST(Daemon, GoldenTraceAlertsMatchDirectDetectorExactly) {
  const auto trace = net::read_pcap_fast(golden_path("golden_trace.pcap"));
  ASSERT_GT(trace.size(), 0u);
  const core::StreamingConfig streaming =
      DaemonConfig::daemon_streaming_defaults();
  const auto expected = feed_directly(trace, streaming);
  ASSERT_FALSE(expected.empty()) << "golden trace must alert";

  for (const bool use_ring : {true, false}) {
    SCOPED_TRACE(use_ring ? "ring" : "inline");
    DaemonConfig config;
    config.use_ring = use_ring;
    config.ring_capacity = 1 << 10;
    config.back_pressure = BackPressure::block;  // lossless: exact replay
    config.streaming = streaming;
    std::vector<std::string> alerts;
    Daemon d(config,
             std::make_unique<ReplaySource>(trace, "golden", /*speed=*/0),
             [&](const core::LoopAlert& a) { alerts.push_back(render(a)); });
    const DaemonStats stats = d.run();

    EXPECT_EQ(alerts, expected);
    EXPECT_EQ(stats.pushed, trace.size());
    EXPECT_EQ(stats.consumed, trace.size());
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_TRUE(stats.invariant_ok());
    EXPECT_EQ(stats.alerts, expected.size());
  }
}

// The committed alert pin (tests/golden/golden_streaming_alerts.txt is what
// `rloopd --source pcap --speed max` prints; CI diffs the daemon's output
// against it byte-for-byte). Here we pin the semantic content — one alert
// per line, prefixes in raise order — so drift is caught locally before CI.
TEST(Daemon, GoldenAlertsMatchPinnedFile) {
  std::ifstream pin(golden_path("golden_streaming_alerts.txt"));
  ASSERT_TRUE(pin.good()) << "missing golden_streaming_alerts.txt";
  std::vector<std::string> lines;
  for (std::string line; std::getline(pin, line);) lines.push_back(line);
  ASSERT_FALSE(lines.empty());

  const auto trace = net::read_pcap_fast(golden_path("golden_trace.pcap"));
  DaemonConfig config;  // rloopd defaults
  std::vector<core::LoopAlert> alerts;
  Daemon d(config, std::make_unique<ReplaySource>(trace, "golden", 0),
           [&](const core::LoopAlert& a) { alerts.push_back(a); });
  (void)d.run();

  ASSERT_EQ(alerts.size(), lines.size());
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    EXPECT_NE(lines[i].find(alerts[i].prefix24.to_string()),
              std::string::npos)
        << "alert " << i << " prefix mismatch: " << lines[i];
  }
}

// Overload burst: a replay producer (a ~50 ns memcpy per record) against
// the detection consumer (hundreds of ns per packet, plus per-epoch clock
// reads forced by batch_size=1) is an order of magnitude of speed mismatch
// into a tiny ring — drops are guaranteed, and every single record must be
// accounted for: pushed == consumed + dropped, exactly.
TEST(Daemon, BurstOverloadDropAccountingIsExact) {
  constexpr std::size_t kCount = 200'000;
  // Pre-built records make the producer pure memcpy (maximally bursty).
  net::Trace trace("burst", 0);
  {
    SyntheticSource gen(kCount, 1 << 14);
    net::TraceRecord rec;
    while (gen.next(rec)) trace.add(rec.ts, rec.bytes(), rec.wire_len);
  }

  DaemonConfig config;
  config.ring_capacity = 64;
  config.batch_size = 1;
  config.back_pressure = BackPressure::drop_newest;
  Daemon d(config,
           std::make_unique<ReplaySource>(std::move(trace), "burst", 0),
           nullptr);
  const DaemonStats stats = d.run();

  EXPECT_EQ(stats.pushed, kCount);
  EXPECT_EQ(stats.pushed, stats.consumed + stats.dropped)
      << "drop accounting must be exact";
  EXPECT_GT(stats.dropped, 0u) << "overload never happened";
  EXPECT_GT(stats.consumed, 0u);
  EXPECT_EQ(stats.consumed, d.detector().packets_seen());
}

// Soak: 10^6 packets across 1.2*10^5 distinct /24s against a 50k entry
// budget. Peak resident entries must never exceed the budget — the
// fixed-RSS guarantee that lets the daemon run for days.
void run_soak(bool use_ring) {
  constexpr std::size_t kPackets = 1'000'000;
  constexpr std::size_t kPrefixes = 120'000;
  constexpr std::size_t kBudget = 50'000;

  DaemonConfig config;
  config.use_ring = use_ring;
  config.back_pressure = BackPressure::block;  // lossless: all 10^6 processed
  config.streaming.max_open_entries = kBudget;
  Daemon d(config, std::make_unique<SyntheticSource>(kPackets, kPrefixes),
           nullptr);
  const DaemonStats stats = d.run();

  EXPECT_EQ(stats.consumed, kPackets);
  EXPECT_TRUE(stats.invariant_ok());
  EXPECT_LE(stats.peak_open_entries, kBudget)
      << "entry budget violated: daemon memory is unbounded";
  EXPECT_GT(stats.evicted, 0u) << "budget never engaged; soak too small";
  EXPECT_LE(stats.open_entries, kBudget);
}

TEST(Daemon, SoakBoundedMemorySerial) { run_soak(false); }
TEST(Daemon, SoakBoundedMemoryThreaded) { run_soak(true); }

// request_stop mid-stream (the SIGINT/SIGTERM path): the producer stops
// promptly, the consumer drains the ring, and accounting still balances.
TEST(Daemon, GracefulStopDrainsAndBalances) {
  constexpr std::size_t kCount = 50'000'000;  // would take minutes; we stop
  DaemonConfig config;
  config.back_pressure = BackPressure::block;
  Daemon d(config, std::make_unique<SyntheticSource>(kCount, 1 << 16),
           nullptr);
  std::thread stopper([&d] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    d.request_stop();
  });
  const DaemonStats stats = d.run();
  stopper.join();

  EXPECT_LT(stats.pushed, kCount) << "stop did not interrupt the source";
  EXPECT_GT(stats.consumed, 0u);
  EXPECT_TRUE(stats.invariant_ok())
      << "pushed=" << stats.pushed << " consumed=" << stats.consumed
      << " dropped=" << stats.dropped;
  // A blocked push abandoned by stop is the only legal drop here.
  EXPECT_LE(stats.dropped, 1u);
}

// request_reload (the SIGHUP path) re-reads the config file at the next
// epoch boundary and applies the reloadable keys to the live detector.
TEST(Daemon, ReloadAppliesConfigFileToLiveDetector) {
  const std::string path = ::testing::TempDir() + "/rloopd_reload.conf";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << "# reloadable keys\n"
        << "max_open_entries=123\n"
        << "min_replicas=4\n"
        << "stats_interval_s=2.5\n";
  }
  DaemonConfig config;
  config.config_file = path;
  Daemon d(config, std::make_unique<SyntheticSource>(10'000, 1 << 10),
           nullptr);
  d.request_reload();  // pending before run(): applied after the first epoch
  const DaemonStats stats = d.run();
  std::remove(path.c_str());

  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(d.detector().config().max_open_entries, 123u);
  EXPECT_EQ(d.detector().config().min_replicas, 4u);
  EXPECT_EQ(d.config().stats_interval, net::from_seconds(2.5));
}

TEST(Daemon, BadReloadFileLeavesConfigUntouched) {
  const std::string path = ::testing::TempDir() + "/rloopd_bad.conf";
  {
    std::ofstream out(path);
    out << "min_replicas=not_a_number\n";
  }
  DaemonConfig config;
  config.config_file = path;
  const std::size_t original = config.streaming.max_open_entries;
  Daemon d(config, std::make_unique<SyntheticSource>(10'000, 1 << 10),
           nullptr);
  d.request_reload();
  const DaemonStats stats = d.run();
  std::remove(path.c_str());

  EXPECT_EQ(stats.reloads, 1u);  // the signal was seen...
  EXPECT_EQ(d.detector().config().max_open_entries, original);  // ...ignored
  EXPECT_EQ(d.detector().config().min_replicas, 3u);
}

TEST(Daemon, StatsJsonIsValidAndCarriesTheInvariant) {
  DaemonConfig config;
  telemetry::Registry registry;
  Daemon d(config, std::make_unique<SyntheticSource>(5'000, 1 << 8), nullptr,
           &registry);
  const DaemonStats stats = d.run();

  const std::string json =
      stats.to_json(telemetry::to_json(registry.snapshot()));
  std::string error;
  EXPECT_TRUE(rloop::testing::is_valid_json(json, &error)) << error;
  EXPECT_NE(json.find("\"invariant_ok\":true"), std::string::npos);
  EXPECT_NE(json.find("\"pushed\":5000"), std::string::npos);
  EXPECT_NE(json.find("rloop_daemon_ring_dropped_total"), std::string::npos);
}

// The source name embeds the capture path, which may hold any byte but NUL;
// the --stats-out document must stay valid JSON whatever the path is.
TEST(Daemon, StatsJsonEscapesControlCharactersInTheSource) {
  const auto trace = net::read_pcap_fast(golden_path("golden_trace.pcap"));
  for (const char* odd : {"\t", "\n", "\r", "\x01", "\x1f", "\"", "\\"}) {
    SCOPED_TRACE(static_cast<int>(odd[0]));
    const std::string name = std::string("pcap:/captures/run") + odd + ".pcap";
    Daemon d(DaemonConfig{}, std::make_unique<ReplaySource>(&trace, name, 0.0),
             nullptr);
    const DaemonStats stats = d.run();
    ASSERT_EQ(stats.source, name);
    std::string error;
    EXPECT_TRUE(rloop::testing::is_valid_json(stats.to_json(""), &error))
        << error;
  }
}

TEST(Daemon, RejectsNonPowerOfTwoRing) {
  DaemonConfig config;
  config.ring_capacity = 1000;
  EXPECT_THROW(Daemon(config, std::make_unique<SyntheticSource>(1, 1),
                      nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace rloop::daemon

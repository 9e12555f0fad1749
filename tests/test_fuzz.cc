// Fuzz-style robustness tests: untrusted bytes must never crash parsers or
// the detector (network data is hostile input).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/loop_detector.h"
#include "core/replica_key.h"
#include "core/streaming_detector.h"
#include "net/packet.h"
#include "net/pcap.h"
#include "net/pcap_mmap.h"
#include "result_equality.h"
#include "trace_builder.h"
#include "util/random.h"

namespace rloop {
namespace {

std::vector<std::byte> random_bytes(util::Rng& rng, std::size_t n) {
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next_u64());
  return out;
}

TEST(Fuzz, ParsePacketNeverCrashes) {
  util::Rng rng(1);
  for (int trial = 0; trial < 20000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 60));
    auto bytes = random_bytes(rng, n);
    // Bias half the inputs toward "almost valid": version 4, IHL 5.
    if (!bytes.empty() && rng.bernoulli(0.5)) bytes[0] = std::byte{0x45};
    const auto parsed = net::parse_packet(bytes);
    if (parsed) {
      // Whatever parsed must be internally consistent enough to reserialize.
      std::array<std::byte, net::kMaxHeaderBytes> buf{};
      EXPECT_NO_THROW(net::serialize_packet(*parsed, buf));
    }
  }
}

TEST(Fuzz, ReplicaKeyHandlesArbitraryBytes) {
  util::Rng rng(2);
  for (int trial = 0; trial < 20000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 40));
    const auto bytes = random_bytes(rng, n);
    const auto key = core::make_replica_key(bytes);
    EXPECT_EQ(key.len, n);
    // Identical input -> identical key, regardless of content.
    EXPECT_EQ(key, core::make_replica_key(bytes));
  }
}

TEST(Fuzz, DetectorSurvivesGarbageTrace) {
  util::Rng rng(3);
  net::Trace trace("garbage", 0);
  net::TimeNs t = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 45));
    auto bytes = random_bytes(rng, n);
    if (!bytes.empty() && rng.bernoulli(0.6)) bytes[0] = std::byte{0x45};
    trace.add(t, bytes, static_cast<std::uint32_t>(n));
    t += static_cast<net::TimeNs>(rng.uniform_int(0, 1'000'000));
  }
  const auto result = core::detect_loops(trace);
  EXPECT_EQ(result.total_records, 5000u);
  // Random bytes should essentially never produce validated loops: a loop
  // needs >= 3 byte-identical records with decrementing TTLs.
  EXPECT_EQ(result.loops.size(), 0u);
}

TEST(Fuzz, StreamingDetectorSurvivesGarbage) {
  util::Rng rng(4);
  core::StreamingDetector detector({}, nullptr);
  net::TimeNs t = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 45));
    auto bytes = random_bytes(rng, n);
    if (!bytes.empty() && rng.bernoulli(0.6)) bytes[0] = std::byte{0x45};
    detector.on_packet(t, bytes);
    t += static_cast<net::TimeNs>(rng.uniform_int(0, 100'000));
  }
  EXPECT_EQ(detector.packets_seen(), 20000u);
}

// Randomized TTL-sequence fuzzing through BOTH detector paths. Each trial
// builds a trace from a pool of flows whose observation sequences mix every
// TTL pattern the per-key state machine branches on — monotonic decreases
// (loop-like), TTL increases (retransmission with IP-ID reuse), equal-TTL
// duplicates (link-layer dups), quiet gaps exceeding stream_timeout
// (stream splits), and IP-ID wraparound — then asserts the serial and the
// sharded/parallel pipeline produce FIELD-IDENTICAL results and neither
// crashes. Any divergence here would mean sharding changed the algorithm.
TEST(Fuzz, RandomTtlSequencesSerialAndParallelNeverDiverge) {
  using rloop::testing::TraceBuilder;
  for (const std::uint64_t seed : {11u, 29u, 73u, 131u, 977u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed);
    TraceBuilder builder;
    net::TimeNs t = 0;
    for (int burst = 0; burst < 120; ++burst) {
      const net::Ipv4Addr dst(
          static_cast<std::uint8_t>(rng.uniform_int(1, 223)),
          static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
          static_cast<std::uint8_t>(rng.uniform_int(0, 255)), 10);
      // Bias IP-IDs toward the wrap point so successive bursts reuse ids
      // across the 16-bit boundary.
      const auto ip_id = static_cast<std::uint16_t>(
          rng.bernoulli(0.3) ? 65533 + rng.uniform_int(0, 5)
                             : rng.uniform_int(0, 65535));
      auto ttl = static_cast<int>(rng.uniform_int(2, 255));
      const int len = static_cast<int>(rng.uniform_int(1, 12));
      for (int i = 0; i < len; ++i) {
        builder.packet(t, dst, static_cast<std::uint8_t>(ttl), ip_id);
        switch (rng.uniform_int(0, 4)) {
          case 0:  // loop-like monotonic decrease
            ttl = std::max(2, ttl - static_cast<int>(rng.uniform_int(1, 3)));
            break;
          case 1:  // TTL increase (retransmission reusing the IP-ID)
            ttl = std::min(255, ttl + static_cast<int>(rng.uniform_int(1, 64)));
            break;
          case 2:  // equal-TTL duplicate
            break;
          case 3:  // quiet gap past stream_timeout: forces a stream split
            t += 11 * net::kSecond;
            break;
          default:
            ttl = std::max(2, ttl - 1);
            break;
        }
        t += static_cast<net::TimeNs>(rng.uniform_int(1, 2'000'000));
      }
      if (rng.bernoulli(0.1)) {  // interleave malformed records
        builder.raw(t, std::vector<std::byte>(
                           static_cast<std::size_t>(rng.uniform_int(0, 30))));
      }
    }

    const auto serial = core::detect_loops(builder.trace());
    for (const auto& [threads, bits] :
         {std::pair<unsigned, unsigned>{2, 1}, {4, 4}, {8, 2}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " bits=" + std::to_string(bits));
      core::LoopDetectorConfig config;
      config.parallel.num_threads = threads;
      config.parallel.shard_bits = bits;
      const auto parallel = core::detect_loops(builder.trace(), config);
      rloop::testing::expect_equal_results(serial, parallel);
    }
  }
}

// Pure-garbage traces through both paths: same no-crash guarantee as
// DetectorSurvivesGarbageTrace, plus no serial/parallel divergence even on
// mostly-unparseable input.
TEST(Fuzz, GarbageTraceSerialAndParallelNeverDiverge) {
  util::Rng rng(6);
  net::Trace trace("garbage", 0);
  net::TimeNs t = 0;
  for (int i = 0; i < 3000; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 45));
    auto bytes = random_bytes(rng, n);
    if (!bytes.empty() && rng.bernoulli(0.6)) bytes[0] = std::byte{0x45};
    trace.add(t, bytes, static_cast<std::uint32_t>(n));
    t += static_cast<net::TimeNs>(rng.uniform_int(0, 1'000'000));
  }
  const auto serial = core::detect_loops(trace);
  core::LoopDetectorConfig config;
  config.parallel.num_threads = 4;
  config.parallel.shard_bits = 3;
  const auto parallel = core::detect_loops(trace, config);
  rloop::testing::expect_equal_results(serial, parallel);
}

TEST(Fuzz, PcapReaderRejectsGarbageFilesGracefully) {
  util::Rng rng(5);
  const auto dir = std::filesystem::temp_directory_path();
  for (int trial = 0; trial < 60; ++trial) {
    const auto path =
        (dir / ("rloop_fuzz_" + std::to_string(trial) + ".pcap")).string();
    {
      std::ofstream out(path, std::ios::binary);
      const auto n = static_cast<std::size_t>(rng.uniform_int(0, 400));
      auto bytes = random_bytes(rng, n);
      // Half the trials get a valid magic so the reader goes deeper.
      if (n >= 4 && rng.bernoulli(0.5)) {
        bytes[0] = std::byte{0xd4};
        bytes[1] = std::byte{0xc3};
        bytes[2] = std::byte{0xb2};
        bytes[3] = std::byte{0xa1};
      }
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    // Must either parse (possibly zero records) or throw cleanly.
    try {
      const auto trace = net::read_pcap_fast(path);
      (void)trace;
    } catch (const std::runtime_error&) {
      // expected for malformed files
    }
    std::filesystem::remove(path);
  }
}

TEST(Fuzz, SampleTraceBounds) {
  net::Trace trace("t", 0);
  const auto pkt = net::make_udp_packet(net::Ipv4Addr(1, 2, 3, 4),
                                        net::Ipv4Addr(5, 6, 7, 8), 1, 2, 10,
                                        64, 1);
  for (int i = 0; i < 10000; ++i) trace.add(i, pkt, 50);

  EXPECT_EQ(net::sample_trace(trace, 1.0, 9).size(), 10000u);
  EXPECT_EQ(net::sample_trace(trace, 0.0, 9).size(), 0u);
  const auto half = net::sample_trace(trace, 0.5, 9);
  EXPECT_NEAR(static_cast<double>(half.size()), 5000.0, 300.0);
  // Deterministic.
  EXPECT_EQ(net::sample_trace(trace, 0.5, 9).size(), half.size());
  // Order preserved.
  for (std::size_t i = 1; i < half.size(); ++i) {
    EXPECT_GE(half[i].ts, half[i - 1].ts);
  }
  EXPECT_THROW(net::sample_trace(trace, 1.5, 9), std::invalid_argument);
}

}  // namespace
}  // namespace rloop

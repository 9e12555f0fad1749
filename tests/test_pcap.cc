// Savefile format cases, each read through both ingest paths of
// read_pcap_fast: a regular file (mapped) and a FIFO (read whole). Both
// paths feed the one parser, so every case pins the same counts on each.
#include "net/pcap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <vector>

#include "net/packet.h"
#include "net/pcap_mmap.h"
#include "net/time.h"
#include "pcap_fifo.h"

namespace rloop::net {
namespace {

enum class Input { file, fifo };

class PcapFormat : public ::testing::TestWithParam<Input> {
 protected:
  void SetUp() override {
    // Parametrized test names contain '/'.
    std::string name =
        "rloop_pcap_test_" + std::to_string(::getpid()) + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".pcap";
    std::replace(name.begin(), name.end(), '/', '_');
    path_ = (std::filesystem::path(::testing::TempDir()) / name).string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  // Reads the capture written at path_ through this case's ingest path.
  Trace read(telemetry::Registry* registry = nullptr) const {
    return GetParam() == Input::file
               ? read_pcap_fast(path_, registry)
               : testing::read_pcap_via_fifo(path_, registry);
  }

  std::string path_;
};

INSTANTIATE_TEST_SUITE_P(
    BothInputs, PcapFormat, ::testing::Values(Input::file, Input::fifo),
    [](const ::testing::TestParamInfo<Input>& info) {
      return info.param == Input::file ? "file" : "fifo";
    });

// A hand-built savefile in either byte order.
class PcapBytes {
 public:
  explicit PcapBytes(bool big_endian = false) : big_endian_(big_endian) {}

  PcapBytes& u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      const int shift = big_endian_ ? 24 - 8 * i : 8 * i;
      bytes_.push_back(static_cast<char>(v >> shift));
    }
    return *this;
  }
  PcapBytes& u16(std::uint16_t v) {
    const char lo = static_cast<char>(v);
    const char hi = static_cast<char>(v >> 8);
    bytes_.push_back(big_endian_ ? hi : lo);
    bytes_.push_back(big_endian_ ? lo : hi);
    return *this;
  }
  PcapBytes& raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const char*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
    return *this;
  }
  // File header: version 2.4, no zone, snaplen 65535.
  PcapBytes& header(std::uint32_t magic, std::uint32_t linktype) {
    return u32(magic).u16(2).u16(4).u32(0).u32(0).u32(65535).u32(linktype);
  }
  PcapBytes& record(std::uint32_t sec, std::uint32_t frac, const void* data,
                    std::size_t n) {
    const auto len = static_cast<std::uint32_t>(n);
    return u32(sec).u32(frac).u32(len).u32(len).raw(data, n);
  }
  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
  }

 private:
  bool big_endian_;
  std::vector<char> bytes_;
};

ParsedPacket sample_packet(std::uint8_t ttl, std::uint16_t id) {
  return make_udp_packet(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(203, 0, 113, 5),
                         1234, 53, 64, ttl, id);
}

std::uint64_t counter(telemetry::Registry& reg, const char* name,
                      telemetry::LabelSet labels = {}) {
  return reg.counter(name, std::move(labels))->value();
}

TEST_P(PcapFormat, WriteReadRoundtrip) {
  Trace trace("rt", 1'005'224'400);
  for (int i = 0; i < 50; ++i) {
    trace.add(i * kMillisecond + i,  // ns-resolution offsets
              sample_packet(static_cast<std::uint8_t>(64 - i % 4),
                            static_cast<std::uint16_t>(i)),
              92);
  }
  write_pcap(trace, path_);
  const Trace back = read();

  ASSERT_EQ(back.size(), trace.size());
  EXPECT_EQ(back.epoch_unix_s(), trace.epoch_unix_s());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(back[i].ts, trace[i].ts) << i;
    EXPECT_EQ(back[i].wire_len, trace[i].wire_len) << i;
    EXPECT_EQ(back[i].cap_len, trace[i].cap_len) << i;
    EXPECT_EQ(back[i].data, trace[i].data) << i;
  }
}

// Larger than one pipe buffer (64 KiB on Linux) and than the whole-stream
// reader's first allocation, so the FIFO path needs many reads.
TEST_P(PcapFormat, ReadsCaptureLargerThanOnePipeBuffer) {
  Trace trace("big", 1'005'224'400);
  for (int i = 0; i < 3000; ++i) {
    trace.add(i * kMillisecond, sample_packet(64, static_cast<std::uint16_t>(i)),
              92);
  }
  write_pcap(trace, path_);
  ASSERT_GT(std::filesystem::file_size(path_), std::uintmax_t{2} << 16);
  const Trace back = read();

  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(back[i].ts, trace[i].ts) << i;
    EXPECT_EQ(back[i].data, trace[i].data) << i;
  }
}

TEST_P(PcapFormat, NanosecondTimestampsPreserved) {
  Trace trace("ns", 1000);
  trace.add(123'456'789, sample_packet(64, 1), 92);
  write_pcap(trace, path_);
  const Trace back = read();
  ASSERT_EQ(back.size(), 1u);
  // First record's second becomes the epoch; sub-second part is exact.
  EXPECT_EQ(back.epoch_unix_s() * kSecond + back[0].ts,
            1000 * kSecond + 123'456'789);
}

TEST_P(PcapFormat, ReadsMicrosecondLittleEndianFiles) {
  const auto pkt = sample_packet(60, 7);
  std::array<std::byte, kMaxHeaderBytes> pkt_buf{};
  const auto pkt_len = serialize_packet(pkt, pkt_buf);
  PcapBytes()
      .header(kPcapMagicMicros, kLinktypeRaw)
      .record(500, 250'000, pkt_buf.data(), pkt_len)  // 500 s + 250,000 µs
      .write(path_);

  const Trace trace = read();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.epoch_unix_s(), 500);
  EXPECT_EQ(trace[0].ts, 250 * kMillisecond);
  const auto parsed = parse_packet(trace[0].bytes());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, pkt);
}

TEST_P(PcapFormat, ReadsBigEndianFiles) {
  const auto pkt = sample_packet(60, 7);
  std::array<std::byte, kMaxHeaderBytes> pkt_buf{};
  const auto pkt_len = serialize_packet(pkt, pkt_buf);
  PcapBytes(/*big_endian=*/true)
      .header(kPcapMagicMicros, kLinktypeRaw)
      .record(42, 1, pkt_buf.data(), pkt_len)
      .write(path_);

  const Trace trace = read();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.epoch_unix_s(), 42);
  EXPECT_EQ(trace[0].ts, 1 * kMicrosecond);
}

TEST_P(PcapFormat, ReadsEthernetFramesAndSkipsNonIpv4) {
  const auto pkt = sample_packet(61, 8);
  std::array<std::byte, kMaxHeaderBytes> pkt_buf{};
  const auto pkt_len = serialize_packet(pkt, pkt_buf);
  const auto frame = [&](std::uint16_t ethertype, bool include_payload) {
    std::vector<char> f(14);
    f[12] = static_cast<char>(ethertype >> 8);
    f[13] = static_cast<char>(ethertype & 0xff);
    if (include_payload) {
      const auto* p = reinterpret_cast<const char*>(pkt_buf.data());
      f.insert(f.end(), p, p + pkt_len);
    } else {
      f.insert(f.end(), {1, 2, 3, 4});
    }
    return f;
  };
  const auto arp = frame(0x0806, false);  // skipped
  const auto ipv4 = frame(0x0800, true);  // kept

  for (const bool big_endian : {false, true}) {
    SCOPED_TRACE(big_endian ? "big-endian" : "little-endian");
    PcapBytes(big_endian)
        .header(kPcapMagicNanos, kLinktypeEthernet)
        .record(7, 0, arp.data(), arp.size())
        .record(7, 0, ipv4.data(), ipv4.size())
        .write(path_);

    telemetry::Registry reg;
    const Trace trace = read(&reg);
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace.epoch_unix_s(), 7);
    EXPECT_EQ(trace[0].wire_len, pkt_len);
    const auto parsed = parse_packet(trace[0].bytes());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, pkt);
    EXPECT_EQ(counter(reg, "rloop_pcap_records_total"), 1u);
    EXPECT_EQ(counter(reg, "rloop_pcap_records_skipped_total",
                      {{"reason", "non_ipv4"}}),
              1u);
    EXPECT_EQ(counter(reg, "rloop_pcap_records_skipped_total",
                      {{"reason", "short_ethernet"}}),
              0u);
  }
}

TEST_P(PcapFormat, RejectsBadMagic) {
  const char junk[24] = {1, 2, 3};
  PcapBytes().raw(junk, sizeof junk).write(path_);
  EXPECT_THROW(read(), std::runtime_error);
}

TEST_P(PcapFormat, RejectsTruncatedHeader) {
  const char junk[10] = {};
  PcapBytes().raw(junk, sizeof junk).write(path_);
  EXPECT_THROW(read(), std::runtime_error);
}

TEST_P(PcapFormat, TruncatedFinalRecordIsCountedNotFatal) {
  // A capture that ends mid-record (killed tcpdump, full disk) must yield
  // every complete record plus a counted warning, not a failed read.
  Trace trace("rt", 0);
  trace.add(0, sample_packet(64, 1), 92);
  trace.add(kMillisecond, sample_packet(62, 2), 92);
  write_pcap(trace, path_);
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 3);  // chop into record 2's body

  telemetry::Registry reg;
  const Trace back = read(&reg);
  EXPECT_EQ(back.size(), 1u) << "complete records must survive";
  EXPECT_EQ(back[0].data, trace[0].data);
  EXPECT_EQ(counter(reg, "rloop_pcap_truncated_records_total"), 1u);
}

TEST_P(PcapFormat, TruncatedRecordHeaderIsCountedNotFatal) {
  Trace trace("rt", 0);
  trace.add(0, sample_packet(64, 1), 92);
  write_pcap(trace, path_);
  // Leave only 5 bytes of a would-be second record header.
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  const char junk[5] = {1, 2, 3, 4, 5};
  out.write(junk, sizeof junk);
  out.close();

  telemetry::Registry reg;
  const Trace back = read(&reg);
  EXPECT_EQ(back.size(), 1u);
  EXPECT_EQ(counter(reg, "rloop_pcap_truncated_records_total"), 1u);
}

TEST(PcapTest, RejectsMissingFile) {
  EXPECT_THROW(read_pcap_fast("/nonexistent/dir/file.pcap"),
               std::runtime_error);
  Trace t("x", 0);
  EXPECT_THROW(write_pcap(t, "/nonexistent/dir/file.pcap"),
               std::runtime_error);
}

}  // namespace
}  // namespace rloop::net

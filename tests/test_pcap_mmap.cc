#include "net/pcap_mmap.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/pcap.h"

namespace rloop::net {
namespace {

// An empty regular file has nothing to map; the whole-stream read then
// finds no file header.
TEST(PcapMmapTest, RejectsEmptyFile) {
  const std::string path = ::testing::TempDir() + "/rloop_pcap_empty.pcap";
  std::ofstream(path, std::ios::binary | std::ios::trunc).close();
  EXPECT_THROW(read_pcap_fast(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(PcapMmapTest, BufferParserRejectsImplausibleRecordLength) {
  std::vector<std::byte> buf(64);  // file header (24) + record header (16)
  std::size_t n = 0;
  auto le32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf[n++] = std::byte(v >> (8 * i));
  };
  auto le16 = [&](std::uint16_t v) {
    for (int i = 0; i < 2; ++i) buf[n++] = std::byte(v >> (8 * i));
  };
  le32(kPcapMagicNanos);
  le16(2);
  le16(4);
  le32(0);
  le32(0);
  le32(65535);
  le32(kLinktypeRaw);
  le32(0);
  le32(0);
  le32((1u << 20) + 1);  // cap_len beyond the sanity bound
  le32(64);
  EXPECT_THROW(
      parse_pcap_buffer(std::span<const std::byte>(buf.data(), n), "buf"),
      std::runtime_error);
}

// The reader counts the records it keeps before it parses, so the trace is
// allocated once at its exact size, not grown by doubling.
TEST(PcapMmapTest, TraceIsSizedExactly) {
  const Trace trace = read_pcap_fast(std::string(RLOOP_GOLDEN_DIR) +
                                     "/golden_trace.pcap");
  ASSERT_GT(trace.size(), 0u);
  EXPECT_EQ(trace.records().capacity(), trace.size());
}

// A capture past several 4 MiB release steps: the mapped path drops parsed
// pages behind its cursor, and must still read exactly what the buffer
// parser reads from the same bytes, Ethernet skips included.
TEST(PcapMmapTest, MappedReadPastReleaseStepsMatchesBuffer) {
  const std::string path = ::testing::TempDir() + "/rloop_pcap_large.pcap";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const auto le32 = [&](std::uint32_t v) {
      for (int i = 0; i < 4; ++i) out.put(static_cast<char>(v >> (8 * i)));
    };
    le32(kPcapMagicMicros);
    le32(2 | (4u << 16));  // version 2.4
    le32(0);
    le32(0);
    le32(65535);
    le32(kLinktypeEthernet);
    // 14 B Ethernet header + 40 B of IPv4; every 7th frame is ARP (skipped),
    // every 11th a short runt (skipped).
    for (std::uint32_t i = 0; i < 200'000; ++i) {
      const bool runt = i % 11 == 0;
      const std::uint32_t cap = runt ? 9 : 54;
      le32(1'700'000'000 + i / 1000);
      le32((i % 1000) * 1000);
      le32(cap);
      le32(cap + 100);
      for (std::uint32_t b = 0; b < cap; ++b) {
        char c = static_cast<char>((i * 31 + b) & 0xff);
        if (b == 12) c = '\x08';
        if (b == 13) c = i % 7 == 0 ? '\x06' : '\x00';  // ARP : IPv4
        if (b == 14) c = '\x45';
        out.put(c);
      }
    }
  }
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> chars((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  ASSERT_GT(chars.size(), std::size_t{12} << 20);
  const Trace want =
      parse_pcap_buffer(std::as_bytes(std::span(chars)), "buf");
  const std::optional<Trace> got = read_pcap_mmap(path);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->size(), want.size());
  EXPECT_EQ(got->records().capacity(), got->size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ((*got)[i].ts, want[i].ts) << i;
    ASSERT_EQ((*got)[i].wire_len, want[i].wire_len) << i;
    ASSERT_EQ((*got)[i].data, want[i].data) << i;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rloop::net

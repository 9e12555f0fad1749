#include "net/pcap_mmap.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
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

}  // namespace
}  // namespace rloop::net

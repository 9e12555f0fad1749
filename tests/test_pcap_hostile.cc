// Hostile-input tests over the committed corpus in tests/data/hostile/:
// bad magic, absurd snaplen/record lengths, zero-length records, and a
// record header claiming more bytes than the file holds. Every ingest path
// (in-memory buffer, mapped file, FIFO read whole) must agree: malformed
// framing throws, torn tails are counted warnings, and nothing crashes —
// these files are what a fuzzer or a dying capture box hands the daemon.
// Also the mmap-truncation regression: a file shrunk between open and
// parse must be a counted truncation, not a SIGBUS.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "net/packet.h"
#include "net/pcap.h"
#include "net/pcap_mmap.h"
#include "pcap_fifo.h"
#include "telemetry/registry.h"

namespace rloop::net {
namespace {

std::string hostile_path(const std::string& name) {
  return std::string(RLOOP_HOSTILE_DIR) + "/" + name;
}

std::vector<std::byte> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  std::vector<char> chars((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::vector<std::byte> bytes(chars.size());
  for (std::size_t i = 0; i < chars.size(); ++i) {
    bytes[i] = static_cast<std::byte>(chars[i]);
  }
  return bytes;
}

std::uint64_t truncated_count(telemetry::Registry& reg) {
  return telemetry::get_counter(&reg, "rloop_pcap_truncated_records_total", {},
                                "")
      ->value();
}

// Runs one corpus file through all three ingest paths and checks they agree.
struct Outcome {
  bool threw = false;
  std::size_t records = 0;
  std::uint64_t truncated = 0;
};

Outcome run_reader(int which, const std::string& path) {
  telemetry::Registry reg;
  Outcome out;
  try {
    Trace trace = [&] {
      switch (which) {
        case 0: {
          const auto bytes = slurp(path);
          return parse_pcap_buffer(bytes, "buf:" + path, &reg);
        }
        case 1:
          return read_pcap_fast(path, &reg);
        default:
          return testing::read_pcap_via_fifo(path, &reg);
      }
    }();
    out.records = trace.size();
  } catch (const std::runtime_error&) {
    out.threw = true;
  }
  out.truncated = truncated_count(reg);
  return out;
}

class HostilePcap : public ::testing::TestWithParam<int> {};

std::string reader_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const names[] = {"buffer", "mmap_fast", "fifo"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllReaders, HostilePcap, ::testing::Values(0, 1, 2),
                         reader_name);

TEST_P(HostilePcap, BadMagicThrows) {
  const Outcome out = run_reader(GetParam(), hostile_path("bad_magic.pcap"));
  EXPECT_TRUE(out.threw);
}

// The snaplen field is attacker-controlled noise; the per-record cap_len
// of 2 MiB is what must be rejected (the >1 MiB plausibility throw) before
// any 2 MiB allocation or read happens.
TEST_P(HostilePcap, AbsurdRecordLengthThrows) {
  const Outcome out =
      run_reader(GetParam(), hostile_path("absurd_snaplen.pcap"));
  EXPECT_TRUE(out.threw);
}

TEST_P(HostilePcap, ZeroLengthRecordsAreHarmless) {
  const Outcome out =
      run_reader(GetParam(), hostile_path("zero_len_records.pcap"));
  EXPECT_FALSE(out.threw);
  // Three empty records plus one 4-byte runt, all raw-IP: every record
  // lands in the trace (parse failures are the detector's concern, not the
  // reader's) and none is a truncation.
  EXPECT_EQ(out.records, 4u);
  EXPECT_EQ(out.truncated, 0u);
}

TEST_P(HostilePcap, OverclaimedRecordIsCountedTruncation) {
  const Outcome out = run_reader(GetParam(), hostile_path("overclaim.pcap"));
  EXPECT_FALSE(out.threw);
  EXPECT_EQ(out.records, 0u);
  EXPECT_EQ(out.truncated, 1u);
}

TEST_P(HostilePcap, TornRecordHeaderIsCountedTruncation) {
  const Outcome out = run_reader(GetParam(), hostile_path("torn_header.pcap"));
  EXPECT_FALSE(out.threw);
  EXPECT_EQ(out.records, 1u);  // the whole zero-length record before the tear
  EXPECT_EQ(out.truncated, 1u);
}

// --- mmap shrink regression -------------------------------------------------

struct ShrinkState {
  std::string path;
  std::uintmax_t new_size = 0;
};
ShrinkState g_shrink;

void shrink_hook() {
  std::filesystem::resize_file(g_shrink.path, g_shrink.new_size);
}

// A capture file shrunk between mmap and parse (rotating capture tooling
// does this) must not SIGBUS: the reader re-checks the size and parses only
// the bytes the file still covers, counting the cut as a truncation.
TEST(HostilePcapShrink, FileShrunkDuringMmapIsCountedNotFatal) {
  const std::string path = ::testing::TempDir() + "/rloop_shrink.pcap";
  Trace trace("shrink", 0);
  for (int i = 0; i < 100; ++i) {
    trace.add(i * kMillisecond,
              make_udp_packet(Ipv4Addr(10, 0, 0, 1),
                              Ipv4Addr(203, 0, 113, 5), 1234, 53, 64, 64,
                              static_cast<std::uint16_t>(i)),
              92);
  }
  write_pcap(trace, path);

  // Chop mid-body of a record near the end, after mmap sampled the size.
  g_shrink.path = path;
  g_shrink.new_size = std::filesystem::file_size(path) - 21;
  pcap_mmap_test_hook = &shrink_hook;
  telemetry::Registry reg;
  std::optional<Trace> back;
  ASSERT_NO_THROW(back = read_pcap_mmap(path, &reg));
  pcap_mmap_test_hook = nullptr;

  ASSERT_TRUE(back.has_value()) << "mmap path must not fall back here";
  EXPECT_EQ(back->size(), 99u) << "complete records before the cut survive";
  EXPECT_EQ(truncated_count(reg), 1u);
  for (std::size_t i = 0; i < back->size(); ++i) {
    EXPECT_EQ((*back)[i].data, trace[i].data) << "record " << i;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rloop::net

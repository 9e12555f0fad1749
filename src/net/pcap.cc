#include "net/pcap.h"

#include <array>
#include <fstream>
#include <stdexcept>

namespace rloop::net {

namespace {

void put_le32(std::ofstream& out, std::uint32_t v) {
  const std::array<char, 4> b = {
      static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
      static_cast<char>((v >> 16) & 0xff), static_cast<char>((v >> 24) & 0xff)};
  out.write(b.data(), b.size());
}

void put_le16(std::ofstream& out, std::uint16_t v) {
  const std::array<char, 2> b = {static_cast<char>(v & 0xff),
                                 static_cast<char>((v >> 8) & 0xff)};
  out.write(b.data(), b.size());
}

}  // namespace

void write_pcap(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_pcap: cannot open " + path);

  put_le32(out, kPcapMagicNanos);
  put_le16(out, 2);   // version major
  put_le16(out, 4);   // version minor
  put_le32(out, 0);   // thiszone
  put_le32(out, 0);   // sigfigs
  put_le32(out, kSnapLen);
  put_le32(out, kLinktypeRaw);

  for (const auto& rec : trace.records()) {
    const std::int64_t abs_ns =
        trace.epoch_unix_s() * kSecond + rec.ts;
    const auto sec = static_cast<std::uint32_t>(abs_ns / kSecond);
    const auto nsec = static_cast<std::uint32_t>(abs_ns % kSecond);
    put_le32(out, sec);
    put_le32(out, nsec);
    put_le32(out, rec.cap_len);
    put_le32(out, rec.wire_len);
    out.write(reinterpret_cast<const char*>(rec.data.data()), rec.cap_len);
  }
  out.close();
  if (out.fail()) throw std::runtime_error("write_pcap: write failure " + path);
}

}  // namespace rloop::net

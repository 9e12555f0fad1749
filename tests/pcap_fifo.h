// Test helper: read a capture through a FIFO, the ingest path for input
// that cannot be mapped.
//
// A writer thread streams the file's bytes into a fresh named pipe while
// read_pcap_fast reads the pipe, so every byte arrives through read(2) and
// the mmap path is never taken.
#pragma once

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/pcap_mmap.h"
#include "net/trace.h"
#include "telemetry/registry.h"

namespace rloop::testing {

inline net::Trace read_pcap_via_fifo(const std::string& path,
                                     telemetry::Registry* registry = nullptr) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_pcap_via_fifo: missing " + path);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());

  static std::atomic<int> serial{0};
  const std::string fifo = (std::filesystem::path(::testing::TempDir()) /
                            ("rloop_pcap_" + std::to_string(::getpid()) + "_" +
                             std::to_string(serial++) + ".fifo"))
                               .string();
  if (::mkfifo(fifo.c_str(), 0600) != 0) {
    throw std::runtime_error("read_pcap_via_fifo: mkfifo " + fifo);
  }
  // Opening a FIFO for writing blocks until the reader opens it, and
  // read_pcap_fast reads to end of stream before it parses, so the writer
  // always finishes. A reader that stops early must fail the test's
  // expectations, not kill the process with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  std::thread writer([&] {
    std::ofstream out(fifo, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  });
  try {
    net::Trace trace = net::read_pcap_fast(fifo, registry);
    writer.join();
    std::filesystem::remove(fifo);
    return trace;
  } catch (...) {
    writer.join();
    std::filesystem::remove(fifo);
    throw;
  }
}

}  // namespace rloop::testing

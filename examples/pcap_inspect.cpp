// pcap_inspect: offline trace triage CLI.
//
// Reads a pcap capture (RAW-IP or Ethernet, µs or ns, either byte order),
// prints the traffic-type mix (the paper's Figure 5 view), runs the full
// loop-detection pipeline and summarizes every routing loop, with detector
// thresholds exposed as flags and machine-readable exports.
//
// Usage:
//   pcap_inspect [options] <capture.pcap>
//   pcap_inspect --selftest            simulate, write and re-read a trace
//
// Options:
//   --min-replicas N      validation threshold (default 3, paper's value)
//   --min-ttl-delta N     replica TTL decrease threshold (default 2)
//   --merge-gap-s S       stream merge gap in seconds (default 60)
//   --json FILE           write the full result as JSON
//   --loops-csv FILE      write one CSV row per loop
//   --streams-csv FILE    write one CSV row per validated stream
//   --anonymize-to FILE   write a prefix-preserving anonymized pcap copy
//   --anonymize-key K     key for --anonymize-to (default 1)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <new>
#include <string>

#include "analysis/table.h"
#include "core/impact.h"
#include "core/loop_detector.h"
#include "core/metrics.h"
#include "core/report.h"
#include "net/anonymize.h"
#include "net/pcap.h"
#include "net/pcap_mmap.h"
#include "scenarios/backbone.h"

using namespace rloop;

namespace {

struct Options {
  std::string input;
  bool selftest = false;
  core::LoopDetectorConfig detector;
  std::string json_path;
  std::string loops_csv_path;
  std::string streams_csv_path;
  std::string anonymize_path;
  std::uint64_t anonymize_key = 1;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--min-replicas N] [--min-ttl-delta N] "
               "[--merge-gap-s S]\n"
               "          [--json F] [--loops-csv F] [--streams-csv F]\n"
               "          [--anonymize-to F [--anonymize-key K]]\n"
               "          <capture.pcap> | --selftest\n",
               argv0);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opts;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      opts.selftest = true;
    } else if (arg == "--min-replicas") {
      opts.detector.validator.min_replicas =
          static_cast<std::size_t>(std::strtoul(value(i), nullptr, 10));
    } else if (arg == "--min-ttl-delta") {
      opts.detector.detector.min_ttl_delta =
          static_cast<int>(std::strtol(value(i), nullptr, 10));
    } else if (arg == "--merge-gap-s") {
      opts.detector.merger.merge_gap =
          net::from_seconds(std::strtod(value(i), nullptr));
    } else if (arg == "--json") {
      opts.json_path = value(i);
    } else if (arg == "--loops-csv") {
      opts.loops_csv_path = value(i);
    } else if (arg == "--streams-csv") {
      opts.streams_csv_path = value(i);
    } else if (arg == "--anonymize-to") {
      opts.anonymize_path = value(i);
    } else if (arg == "--anonymize-key") {
      opts.anonymize_key = std::strtoull(value(i), nullptr, 10);
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else if (opts.input.empty()) {
      opts.input = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (opts.input.empty() && !opts.selftest) usage(argv[0]);
  return opts;
}

template <typename Fn>
bool write_file(const std::string& path, Fn&& fn) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return false;
  }
  fn(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts = parse_options(argc, argv);

  if (opts.selftest) {
    auto spec = scenarios::backbone_spec(3);
    spec.duration = 90 * net::kSecond;
    auto run = scenarios::build_backbone(spec);
    scenarios::execute(*run);
    opts.input = (std::filesystem::temp_directory_path() /
                  "rloop_selftest.pcap")
                     .string();
    net::write_pcap(run->trace(), opts.input);
    std::printf("selftest: wrote %zu packets to %s\n", run->trace().size(),
                opts.input.c_str());
  }

  net::Trace trace;
  try {
    trace = net::read_pcap_fast(opts.input);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("trace    : %s\n", opts.input.c_str());
  std::printf("packets  : %zu (%.2f MB on the wire)\n", trace.size(),
              static_cast<double>(trace.total_wire_bytes()) / 1e6);
  std::printf("duration : %.1f s   avg %.2f Mbps\n\n",
              net::to_seconds(trace.duration()),
              trace.average_bandwidth_mbps());

  core::LoopDetectionResult result;
  try {
    result = core::detect_loops(trace, opts.detector);
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "error: out of memory during loop detection\n");
    return 1;
  }

  analysis::TextTable mix({"Type", "All traffic", "Looped traffic"});
  const auto all = core::traffic_type_mix(result.records);
  const auto looped = core::looped_type_mix(result.records, result.valid_streams);
  for (const auto& cat : core::kTrafficCategories) {
    mix.add_row({cat, analysis::format_percent(all.fraction(cat)),
                 looped.total() ? analysis::format_percent(looped.fraction(cat))
                                : "-"});
  }
  mix.print(std::cout);

  std::printf("\nmalformed records : %llu\n",
              static_cast<unsigned long long>(result.parse_failures));
  std::printf("replica streams   : %zu raw, %zu validated\n",
              result.raw_streams.size(), result.valid_streams.size());
  std::printf("routing loops     : %zu\n\n", result.loops.size());

  if (!result.loops.empty()) {
    analysis::TextTable loops(
        {"Prefix", "Start (s)", "Duration", "TTL delta", "Streams", "Replicas"});
    for (const auto& loop : result.loops) {
      loops.add_row({loop.prefix24.to_string(),
                     analysis::format_double(net::to_seconds(loop.start), 3),
                     analysis::format_double(net::to_seconds(loop.duration()), 3) + "s",
                     std::to_string(loop.ttl_delta),
                     std::to_string(loop.stream_count()),
                     std::to_string(loop.replica_count)});
    }
    loops.print(std::cout);

    const auto impact = core::estimate_impact(result);
    std::printf(
        "\nimpact: %llu looped packets expired in loops; %.1f%% of caught "
        "packets may have escaped\n",
        static_cast<unsigned long long>(impact.loop_loss_per_minute.total()),
        impact.escape_fraction() * 100.0);
  }

  // Machine-readable exports.
  bool ok = true;
  if (!opts.json_path.empty()) {
    core::ReportOptions report;
    report.trace_name = trace.link_name();
    report.trace_epoch_unix_s = trace.epoch_unix_s();
    ok &= write_file(opts.json_path, [&](std::ostream& os) {
      core::write_json_report(os, result, report);
    });
    if (ok) std::printf("json report       : %s\n", opts.json_path.c_str());
  }
  if (!opts.loops_csv_path.empty()) {
    ok &= write_file(opts.loops_csv_path, [&](std::ostream& os) {
      core::write_loops_csv(os, result);
    });
  }
  if (!opts.streams_csv_path.empty()) {
    ok &= write_file(opts.streams_csv_path, [&](std::ostream& os) {
      core::write_streams_csv(os, result);
    });
  }
  if (!opts.anonymize_path.empty()) {
    try {
      const net::Anonymizer anonymizer(opts.anonymize_key);
      net::write_pcap(anonymizer.anonymize(trace), opts.anonymize_path);
      std::printf("anonymized pcap   : %s\n", opts.anonymize_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

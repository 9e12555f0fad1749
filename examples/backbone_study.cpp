// backbone_study: the paper's full measurement study on the four simulated
// backbone traces — Table I, Table II and the data behind Figures 2-9.
//
// Usage: backbone_study [--threads N] [--trace-out spans.json] [output_dir]
// When an output directory is given, each trace is written as a pcap file
// and every figure's data as CSV, for external re-plotting. --threads N
// runs detection through the sharded parallel pipeline (N worker threads);
// results are bit-identical to the default serial path. --trace-out writes
// every pipeline span (all four runs) as Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Scenario mode (the ground-truth gate harness, also run by CI):
//   backbone_study --list-scenarios
//   backbone_study --scenario <name|all> [--seed N] [--json-out <dir>]
// Runs canned scenarios (scenarios/scenario.h), gates every detector path
// on 100% recall of tap-detectable loops and the pinned precision floors,
// checks serial == parallel{2,4} reports and daemon == streaming alerts,
// prints a summary table, writes per-scenario truth/alert JSON when
// --json-out is given, and exits non-zero when any gate fails.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/csv.h"
#include "analysis/table.h"
#include "core/impact.h"
#include "core/loop_detector.h"
#include "core/metrics.h"
#include "daemon/daemon.h"
#include "net/pcap.h"
#include "scenarios/backbone.h"
#include "scenarios/scenario.h"
#include "telemetry/trace.h"

using namespace rloop;

namespace {

void write_figures(const std::string& dir, int k, const net::Trace& trace,
                   const core::LoopDetectionResult& result) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  const std::string base = dir + "/backbone" + std::to_string(k);

  {
    analysis::CsvWriter csv(base + "_fig2_ttl_delta.csv", {"ttl_delta", "fraction"});
    const auto hist = core::ttl_delta_distribution(result.valid_streams);
    for (const auto& [delta, count] : hist.counts()) {
      csv.add_row({std::to_string(delta),
                   analysis::format_double(hist.fraction(delta), 4)});
    }
    csv.close();
  }
  auto dump_cdf = [&](const analysis::EmpiricalCdf& cdf,
                      const std::string& path, const std::string& x_name) {
    analysis::CsvWriter csv(path, {x_name, "cdf"});
    for (const auto& [x, f] : cdf.points(128)) {
      csv.add_row({analysis::format_double(x, 4), analysis::format_double(f, 4)});
    }
    csv.close();
  };
  dump_cdf(core::stream_size_cdf(result.valid_streams),
           base + "_fig3_stream_size.csv", "replicas");
  dump_cdf(core::spacing_cdf_ms(result.valid_streams),
           base + "_fig4_spacing_ms.csv", "spacing_ms");
  dump_cdf(core::stream_duration_cdf_ms(result.valid_streams),
           base + "_fig8_stream_duration_ms.csv", "duration_ms");
  dump_cdf(core::loop_duration_cdf_s(result.loops),
           base + "_fig9_loop_duration_s.csv", "duration_s");
  {
    analysis::CsvWriter csv(base + "_fig7_dst_timeseries.csv",
                            {"time_s", "dst_addr"});
    for (const auto& sample : core::dst_timeseries(result.valid_streams)) {
      csv.add_row({analysis::format_double(sample.time_s, 3),
                   sample.dst.to_string()});
    }
    csv.close();
  }
  {
    analysis::CsvWriter csv(base + "_fig5_fig6_type_mix.csv",
                            {"category", "all_fraction", "looped_fraction"});
    const auto all = core::traffic_type_mix(trace);
    const auto looped = core::looped_type_mix(trace, result.valid_streams);
    for (const auto& cat : core::kTrafficCategories) {
      csv.add_row({cat, analysis::format_double(all.fraction(cat), 4),
                   analysis::format_double(looped.fraction(cat), 4)});
    }
    csv.close();
  }
}

// Feeds the scenario's analysis trace through the full daemon (producer
// thread -> SPSC ring -> consumer) and returns the alert lines, which must
// match the in-process streaming path byte for byte.
std::vector<std::string> daemon_alert_lines(
    const scenarios::ScenarioRun& run) {
  daemon::DaemonConfig config;
  config.streaming = scenarios::scenario_streaming_config(run.spec);
  std::vector<std::string> lines;
  daemon::Daemon d(
      std::move(config),
      std::make_unique<daemon::ReplaySource>(&run.analysis_trace(),
                                             "scenario:" + run.spec.name, 0.0),
      [&](const core::LoopAlert& alert) {
        lines.push_back(scenarios::render_alert(alert));
      });
  const daemon::DaemonStats stats = d.run();
  if (!stats.invariant_ok() || stats.dropped != 0) {
    lines.push_back("<daemon accounting violation>");
  }
  return lines;
}

// Returns the number of failing scenarios (process exit code).
int run_scenario_mode(const std::string& which, std::uint64_t seed_override,
                      const std::string& json_dir) {
  std::vector<std::string> names;
  if (which == "all") {
    names = scenarios::canned_scenario_names();
  } else {
    names.push_back(which);
  }
  if (!json_dir.empty()) std::filesystem::create_directories(json_dir);

  analysis::TextTable table({"Scenario", "Truth", "Detectable", "Serial",
                             "Streaming", "Precision", "Recall", "Gates"});
  int failing = 0;
  for (const std::string& name : names) {
    scenarios::ScenarioSpec spec = scenarios::canned_scenario(name);
    if (seed_override != 0) spec.seed = seed_override;
    std::printf("running scenario %s seed=%llu (%s)\n", spec.name.c_str(),
                static_cast<unsigned long long>(spec.seed),
                spec.summary.c_str());
    const auto run = scenarios::run_scenario(spec);
    auto ev = scenarios::evaluate_scenario(*run);

    const auto* streaming = ev.find("streaming");
    if (daemon_alert_lines(*run) != streaming->lines) {
      ev.failures.push_back("daemon alert lines differ from streaming");
      ev.pass = false;
    }

    const auto* serial = ev.find("serial");
    table.add_row({spec.name, std::to_string(serial->score.truth_loops),
                   std::to_string(serial->score.detectable),
                   std::to_string(serial->score.reports),
                   std::to_string(streaming->score.reports),
                   analysis::format_double(serial->score.precision(), 4),
                   analysis::format_double(serial->score.recall(), 4),
                   ev.pass ? "pass" : "FAIL"});
    for (const std::string& failure : ev.failures) {
      std::printf("  gate failure: %s\n", failure.c_str());
    }
    if (!ev.pass) ++failing;

    if (!json_dir.empty()) {
      const std::string path = json_dir + "/" + spec.name + ".json";
      std::ofstream out(path);
      if (!out.good()) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
      out << ev.to_json() << "\n";
    }
  }
  std::printf("\nScenario gates (100%% recall of tap-detectable loops, "
              "pinned precision floors)\n");
  table.print(std::cout);
  if (!json_dir.empty()) {
    std::printf("per-scenario truth/alert JSON written to %s/\n",
                json_dir.c_str());
  }
  return failing;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir;
  std::string trace_out;
  std::string scenario;
  std::string json_dir;
  std::uint64_t seed_override = 0;
  unsigned num_threads = 0;  // 0 = serial pipeline
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--threads requires a value\n");
        return 2;
      }
      num_threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg.rfind("--threads=", 0) == 0) {
      num_threads = static_cast<unsigned>(
          std::strtoul(arg.c_str() + std::string("--threads=").size(), nullptr,
                       10));
    } else if (arg == "--trace-out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--trace-out requires a path\n");
        return 2;
      }
      trace_out = argv[++i];
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::string("--trace-out=").size());
    } else if (arg == "--list-scenarios") {
      for (const std::string& name : scenarios::canned_scenario_names()) {
        std::printf("%-26s %s\n", name.c_str(),
                    scenarios::canned_scenario(name).summary.c_str());
      }
      return 0;
    } else if (arg == "--scenario") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--scenario requires a name (or 'all')\n");
        return 2;
      }
      scenario = argv[++i];
    } else if (arg.rfind("--scenario=", 0) == 0) {
      scenario = arg.substr(std::string("--scenario=").size());
    } else if (arg == "--seed") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--seed requires a value\n");
        return 2;
      }
      seed_override = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed_override =
          std::strtoull(arg.c_str() + std::string("--seed=").size(), nullptr,
                        10);
    } else if (arg == "--json-out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json-out requires a directory\n");
        return 2;
      }
      json_dir = argv[++i];
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_dir = arg.substr(std::string("--json-out=").size());
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "unknown option %s\nusage: backbone_study [--threads N] "
                   "[--trace-out spans.json] [output_dir]\n"
                   "       backbone_study --list-scenarios\n"
                   "       backbone_study --scenario <name|all> [--seed N] "
                   "[--json-out <dir>]\n",
                   arg.c_str());
      return 2;
    } else {
      out_dir = arg;
    }
  }
  if (!scenario.empty()) {
    try {
      return run_scenario_mode(scenario, seed_override, json_dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  telemetry::TraceSink trace_sink;
  core::LoopDetectorConfig detector_config;
  detector_config.parallel.num_threads = num_threads;
  if (!trace_out.empty()) detector_config.trace = &trace_sink;
  if (num_threads > 0) {
    std::printf("parallel pipeline: %u threads (output identical to serial)\n",
                num_threads);
  }

  analysis::TextTable table1({"Trace", "Length (min)", "Avg BW (Mbps)",
                              "Packets", "Looped Packets"});
  analysis::TextTable table2(
      {"Trace", "Replica Streams", "Routing Loops", "Loops <10s",
       "Escape est.", "GT loops"});

  for (int k = 1; k <= 4; ++k) {
    std::printf("running %s ...\n", scenarios::backbone_spec(k).name.c_str());
    const auto run = scenarios::run_backbone(k);
    const net::Trace& trace = run->trace();
    const auto result = core::detect_loops(trace, detector_config);
    const auto impact = core::estimate_impact(result);
    const auto truth = run->truth_loops();

    table1.add_row({run->spec.name,
                    analysis::format_double(net::to_seconds(trace.duration()) / 60.0, 1),
                    analysis::format_double(trace.average_bandwidth_mbps(), 2),
                    std::to_string(trace.size()),
                    std::to_string(result.looped_packet_records())});

    std::uint64_t short_loops = 0;
    for (const auto& loop : result.loops) {
      if (loop.duration() < 10 * net::kSecond) ++short_loops;
    }
    table2.add_row(
        {run->spec.name, std::to_string(result.valid_streams.size()),
         std::to_string(result.loops.size()),
         result.loops.empty()
             ? "-"
             : analysis::format_percent(static_cast<double>(short_loops) /
                                        static_cast<double>(result.loops.size())),
         analysis::format_percent(impact.escape_fraction()),
         std::to_string(truth.size())});

    std::printf("  loops:");
    for (const auto& loop : result.loops) {
      std::printf(" %.2fs(d%d)", net::to_seconds(loop.duration()),
                  loop.ttl_delta);
    }
    std::printf("\n  truth:");
    for (std::size_t i = 0; i < truth.size() && i < 20; ++i) {
      std::printf(" %.2fs", net::to_seconds(truth[i].duration()));
    }
    std::printf("\n");

    if (!out_dir.empty()) {
      std::filesystem::create_directories(out_dir);
      net::write_pcap(trace, out_dir + "/backbone" + std::to_string(k) + ".pcap");
      write_figures(out_dir, k, trace, result);
    }
  }

  std::printf("\nTable I: trace details\n");
  table1.print(std::cout);
  std::printf("\nTable II: replica streams vs merged routing loops\n");
  table2.print(std::cout);
  if (!out_dir.empty()) {
    std::printf("\npcap + figure CSVs written to %s/\n", out_dir.c_str());
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_out.c_str());
      return 1;
    }
    out << trace_sink.chrome_trace_json();
    std::printf("%zu pipeline spans written to %s (open in ui.perfetto.dev)\n",
                trace_sink.size(), trace_out.c_str());
  }
  return 0;
}

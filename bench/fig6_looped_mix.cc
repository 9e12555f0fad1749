// Figure 6: traffic type distribution of looped traffic.
//
// Paper shape: compared with Figure 5, SYN packets are over-represented in
// looped traffic (looped SYNs never establish connections, so no follow-on
// TCP traffic enters the loop, while UDP keeps sending), and ICMP is
// prominent (hosts ping/traceroute into the blackhole; routers emit
// time-exceeded).
#include <iostream>

#include "analysis/table.h"
#include "common.h"
#include "core/metrics.h"

using namespace rloop;

int main() {
  bench::print_header(
      "Figure 6: traffic type distribution, looped traffic",
      "SYN fraction higher than in all traffic; ICMP prominent in loops");

  analysis::TextTable table({"Type", "B1 all", "B1 looped", "B2 all",
                             "B2 looped", "B4 all", "B4 looped"});
  struct Pair {
    analysis::CategoricalCounter all, looped;
  };
  std::vector<Pair> mixes;
  for (int k : {1, 2, 4}) {
    const auto& trace = bench::cached_trace(k);
    mixes.push_back({core::traffic_type_mix(trace),
                     core::looped_type_mix(
                         trace, bench::cached_result(k).valid_streams)});
  }
  for (const auto& cat : core::kTrafficCategories) {
    std::vector<std::string> row = {cat};
    for (const auto& mix : mixes) {
      row.push_back(analysis::format_percent(mix.all.fraction(cat)));
      row.push_back(mix.looped.total()
                        ? analysis::format_percent(mix.looped.fraction(cat))
                        : "-");
    }
    table.add_row(row);
  }
  table.print(std::cout);

  // The paper's SYN observation, made explicit.
  std::printf("\nSYN over-representation (looped SYN%% / all SYN%%):\n");
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    const double all_syn = mixes[i].all.fraction("SYN");
    const double looped_syn = mixes[i].looped.fraction("SYN");
    if (all_syn > 0 && mixes[i].looped.total() > 0) {
      std::printf("  trace %zu: %.2fx\n", i, looped_syn / all_syn);
    }
  }
  return 0;
}

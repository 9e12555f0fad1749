// Figure 5: traffic type distribution of all traffic on the link.
//
// Paper shape: TCP takes more than 80 % of packets, UDP 5-15 %, SYN/FIN
// under 10 %, small ICMP and multicast slivers. (A packet can appear in
// several categories: a SYN-ACK counts under TCP, SYN and ACK.)
#include <iostream>

#include "analysis/table.h"
#include "common.h"
#include "core/metrics.h"

using namespace rloop;

int main() {
  bench::print_header(
      "Figure 5: traffic type distribution, all traffic",
      "TCP > 80%, UDP 5-15%, SYN/FIN < 10%, some ICMP and multicast");

  analysis::TextTable table({"Type", "Backbone 1", "Backbone 2", "Backbone 3",
                             "Backbone 4"});
  std::vector<analysis::CategoricalCounter> mixes;
  mixes.reserve(4);
  for (int k = 1; k <= 4; ++k) {
    mixes.push_back(core::traffic_type_mix(bench::cached_trace(k)));
  }
  for (const auto& cat : core::kTrafficCategories) {
    std::vector<std::string> row = {cat};
    for (const auto& mix : mixes) {
      row.push_back(analysis::format_percent(mix.fraction(cat)));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  return 0;
}

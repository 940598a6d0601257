// Dynamic scenario: a parallel program whose hot shared objects migrate
// between program phases. The online tree strategy (extension module)
// adapts by replicating toward readers and invalidating on writes; we
// compare its realised congestion with the offline static bound and with
// a static extended-nibble placement computed in hindsight.
#include <iostream>
#include <string>

#include "hbn/core/extended_nibble.h"
#include "hbn/core/lower_bound.h"
#include "hbn/dynamic/harness.h"
#include "hbn/net/generators.h"
#include "hbn/util/rng.h"
#include "hbn/util/stats.h"
#include "hbn/util/table.h"
#include "hbn/workload/workload.h"

int main() {
  using namespace hbn;
  util::Rng rng(42);

  const net::Tree tree = net::makeClusterNetwork(4, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto procs = tree.processors();
  constexpr int kObjects = 8;

  // Three program phases; in each phase every object has one writer and a
  // reader camp in a different cluster.
  std::vector<dynamic::Request> requests;
  workload::Workload aggregated(kObjects, tree.nodeCount());
  for (int phase = 0; phase < 3; ++phase) {
    for (workload::ObjectId x = 0; x < kObjects; ++x) {
      const net::NodeId writer = procs[static_cast<std::size_t>(
          rng.nextBelow(procs.size()))];
      const net::NodeId reader = procs[static_cast<std::size_t>(
          rng.nextBelow(procs.size()))];
      for (int round = 0; round < 12; ++round) {
        for (int r = 0; r < 4; ++r) {
          requests.push_back(dynamic::Request{x, reader, false});
          aggregated.addReads(x, reader, 1);
        }
        requests.push_back(dynamic::Request{x, writer, true});
        aggregated.addWrites(x, writer, 1);
      }
    }
  }

  util::Table table({"threshold D", "online congestion", "offline LB",
                     "ratio", "replications", "invalidations"});
  for (const core::Count threshold : {1, 2, 4, 8}) {
    const auto result = dynamic::runCompetitive(
        rooted, kObjects, requests,
        "tree-counters:threshold=" + std::to_string(threshold));
    table.addRow({std::to_string(threshold),
                  util::formatDouble(result.onlineCongestion, 1),
                  util::formatDouble(result.offlineLowerBound, 1),
                  util::formatDouble(result.ratio, 2),
                  std::to_string(result.replications),
                  std::to_string(result.invalidations)});
  }
  table.print(std::cout);

  // Static hindsight placement for reference.
  const auto hindsight = core::extendedNibble(tree, aggregated);
  std::cout << "\nstatic extended-nibble on the aggregated frequencies: "
            << "congestion " << hindsight.report.congestionFinal
            << " (the online strategy cannot know the phases in advance "
               "and pays the adaptation cost)\n";
  return 0;
}

// hbn_place — command-line placement driver.
//
// Usage:
//   hbn_place [options] <tree-file> <workload-file>
//   hbn_place --bench [hbn_bench arguments...]
//
// Strategies come from the engine registry (see --help for the generated
// list); --threads shards the per-object work over a pool with
// bit-identical output for any thread count. `--bench` forwards the
// remaining arguments to the hbn_bench experiment driver, so the
// strategy and experiment surfaces share one binary and one CLI
// vocabulary.
//
// Reads a hierarchical bus network (hbn-tree v1 text format, see
// hbn/net/serialize.h) and a workload (hbn-workload v1, see
// hbn/workload/serialize.h), computes the placement, and prints each
// object's copy locations plus the load report (per-edge loads, bus
// loads, congestion, certified lower bound).
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "experiments/experiments.h"
#include "hbn/core/load.h"
#include "hbn/core/lower_bound.h"
#include "hbn/engine/cli.h"
#include "hbn/engine/registry.h"
#include "hbn/net/serialize.h"
#include "hbn/shard/process.h"
#include "hbn/util/stats.h"
#include "hbn/util/table.h"
#include "hbn/workload/serialize.h"

namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

void printUsage(std::ostream& os) {
  os << "usage: hbn_place [options] <tree-file> <workload-file>\n"
        "       hbn_place --bench [hbn_bench arguments...]\n\n"
     << hbn::engine::cliHelp();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hbn;
  // `--bench sharded-serving` spawns exec-cluster workers from this
  // binary; a worker invocation short-circuits here.
  if (const int code = shard::maybeRunWorkerMain(argc, argv); code >= 0) {
    return code;
  }
  // `hbn_place --bench ...` hands everything after the flag to the
  // unified experiment driver (same registry, same JSON emission as
  // hbn_bench). It must come first: placement arguments cannot be mixed
  // into a bench invocation.
  if (argc > 1 && std::string_view(argv[1]) == "--bench") {
    std::vector<char*> rest;
    rest.reserve(static_cast<std::size_t>(argc - 1));
    rest.push_back(argv[0]);
    for (int j = 2; j < argc; ++j) rest.push_back(argv[j]);
    return engine::runBenchCli(bench::experiments(),
                               static_cast<int>(rest.size()), rest.data());
  }
  try {
    const engine::CliOptions cli = engine::parseCli(argc, argv);
    if (cli.help) {
      printUsage(std::cout);
      return 0;
    }
    if (cli.positional.size() != 2) {
      printUsage(std::cerr);
      return 2;
    }
    if (cli.strategies.size() > 1) {
      throw std::invalid_argument("hbn_place takes a single --strategy");
    }
    const std::string spec =
        cli.strategies.empty() ? "extended-nibble" : cli.strategies.front();

    const net::Tree tree = net::parseText(readFile(cli.positional[0]));
    const workload::Workload load =
        workload::parseText(readFile(cli.positional[1]));
    if (load.numNodes() != tree.nodeCount()) {
      throw std::runtime_error("workload node count does not match tree");
    }

    const auto strategy = engine::StrategyRegistry::global().create(spec);
    engine::Context ctx = engine::makeContext(cli, /*defaultSeed=*/1);
    const core::Placement placement = strategy->place(tree, load, ctx);

    std::cout << "strategy: " << spec << " (threads=" << ctx.threads
              << ", seed=" << ctx.seed << ")\n\nplacement:\n";
    for (workload::ObjectId x = 0; x < load.numObjects(); ++x) {
      std::cout << "  object " << x << " -> {";
      bool first = true;
      for (const net::NodeId v :
           placement.objects[static_cast<std::size_t>(x)].locations()) {
        std::cout << (first ? "" : ", ") << v;
        first = false;
      }
      std::cout << "}\n";
    }

    const net::RootedTree rooted(tree, tree.defaultRoot());
    const core::LoadMap loads = core::computeLoad(rooted, placement);
    util::Table edges({"edge", "u", "v", "load", "bandwidth", "relative"});
    for (net::EdgeId e = 0; e < tree.edgeCount(); ++e) {
      const net::Edge& ed = tree.edge(e);
      edges.addRow({std::to_string(e), std::to_string(ed.u),
                    std::to_string(ed.v), std::to_string(loads.edgeLoad(e)),
                    util::formatDouble(ed.bandwidth, 1),
                    util::formatDouble(static_cast<double>(loads.edgeLoad(e)) /
                                           ed.bandwidth,
                                       2)});
    }
    std::cout << "\nedge loads:\n";
    edges.print(std::cout);

    util::Table buses({"bus", "load", "bandwidth", "relative"});
    for (const net::NodeId b : tree.buses()) {
      buses.addRow({std::to_string(b),
                    util::formatDouble(loads.busLoad(tree, b), 1),
                    util::formatDouble(tree.busBandwidth(b), 1),
                    util::formatDouble(
                        loads.busLoad(tree, b) / tree.busBandwidth(b), 2)});
    }
    std::cout << "\nbus loads:\n";
    buses.print(std::cout);

    const double lb = core::analyticLowerBound(rooted, load).congestion;
    std::cout << "\ncongestion:  " << loads.congestion(tree)
              << "\nlower bound: " << lb << "\n";
    if (lb > 0) {
      std::cout << "ratio:       " << loads.congestion(tree) / lb << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

// perfbench — the engine benchmark binary (normally run via run.py).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--git-rev REV]
//   perfbench --sweep-rates R1,R2,... --seed N [--work-dir DIR]
//
// The last line of stdout is the result object; see README.md.
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "hbn/shard/process.h"
#include "runner.h"

namespace {

void usage(std::ostream& os) {
  os << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
        "                 [--work-dir DIR] [--git-rev REV]\n"
        "       perfbench --sweep-rates MREQ_S[,MREQ_S...] --seed N\n"
        "workloads: skewed-hot phase-shift-paced sparse-1m sharded-socket\n";
}

std::uint64_t parseUnsigned(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  const unsigned long long n = std::stoull(v, &used);
  if (used != v.size()) throw std::invalid_argument(flag + ": " + v);
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  // Exec'd shard workers re-enter this binary; they must take the worker
  // path before anything else runs.
  if (const int code = hbn::shard::maybeRunWorkerMain(argc, argv);
      code >= 0) {
    return code;
  }
  perfbench::RunArgs args;
  std::vector<double> sweepRates;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = parseUnsigned(flag, value);
      } else if (flag == "--seconds") {
        args.seconds = static_cast<double>(parseUnsigned(flag, value));
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          throw std::invalid_argument("--trace must be 0 or 1");
        }
        args.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.workDir = value;
      } else if (flag == "--git-rev") {
        args.gitRev = value;
      } else if (flag == "--sweep-rates") {
        std::istringstream list(value);
        std::string item;
        while (std::getline(list, item, ',')) {
          sweepRates.push_back(std::stod(item) * 1e6);
        }
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (!sweepRates.empty()) return perfbench::runRateSweep(args, sweepRates);
    if (args.workload.empty()) {
      throw std::invalid_argument("--workload missing");
    }
    return perfbench::runWorkload(args);
  } catch (const std::invalid_argument& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

// kar_perfbench: the KAR end-to-end benchmark program (README.md).
//
// Usage: kar_perfbench --workload kard-serve|kard-churn|sim-failover
//                      [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//
// Prints human-readable lines, then one JSON object as the last line of
// standard output: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when a correctness check failed, 2 on bad usage.
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/parse.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& error) {
  std::cerr << "kar_perfbench: " << error
            << "\nusage: kar_perfbench --workload "
               "kard-serve|kard-churn|sim-failover [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  const auto number = [](const std::string& value, auto parsed) {
    if (!parsed) throw std::invalid_argument("bad number '" + value + "'");
    return *parsed;
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--smoke") {
        options.smoke = true;
        continue;
      }
      if (i + 1 >= argc) return usage("missing value for " + std::string(arg));
      const std::string value = argv[++i];
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = number(value, kar::common::parse_u64(value));
      } else if (arg == "--seconds") {
        options.seconds = number(value, kar::common::parse_double(value));
      } else if (arg == "--trace") {
        options.trace = number(value, kar::common::parse_u64(value)) != 0;
      } else {
        return usage("unknown argument " + std::string(arg));
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  perfbench::Report report;
  try {
    if (options.workload == "kard-serve") {
      perfbench::run_kard_serve(options, report);
    } else if (options.workload == "kard-churn") {
      perfbench::run_kard_churn(options, report);
    } else if (options.workload == "sim-failover") {
      perfbench::run_sim_failover(options, report);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "kar_perfbench: " << options.workload << ": " << e.what()
              << '\n';
    return 1;
  }
  std::cout << report.json() << std::endl;
  return report.correct() ? 0 : 1;
}

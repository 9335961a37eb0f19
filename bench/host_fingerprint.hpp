// Host stamp for committed bench records: a throughput or latency figure
// is only comparable with figures taken on the same kind of machine and
// toolchain, so every record names them.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <thread>

#include "runner/jsonl.hpp"

namespace kar::bench {

/// {"nproc", "cpu_model", "compiler"} as one JSON object. The CPU model is
/// the first "model name" of /proc/cpuinfo ("unknown" where there is none).
inline std::string host_fingerprint_json() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos) {
      model = line.substr(line.find_first_not_of(" \t", colon + 1));
    }
    break;
  }
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  runner::JsonObject o;
  o.field("nproc",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .field("cpu_model", model)
      .field("compiler", compiler);
  return o.str();
}

}  // namespace kar::bench

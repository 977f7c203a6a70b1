// srbb_perfbench: runs one benchmark workload and prints its measurements.
//
//   srbb_perfbench --workload <name> --seed <n> --seconds <s>
//                  [--trace 0|1] [--spans <file>] [--tiny]
//
// Human-readable lines (provenance, input digest, roots, layer table) come
// first; the last line is one JSON object with every metric measured and
// the output-check verdict. perfbench/run.py builds this program and turns
// that line into the benchmark's result.
#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

/// Timings from an unoptimised, sanitizer or coverage build are not the
/// program's speed; refuse to report them.
const char* unfit_build() {
#if !defined(__OPTIMIZE__)
  return "built without optimisation";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#else
  const std::string_view flags = PERFBENCH_CXX_FLAGS;
  for (const char* bad : {"-O0", "-fsanitize", "--coverage", "-fprofile-arcs"}) {
    if (flags.find(bad) != std::string_view::npos) return "built with an unfit flag";
  }
  return nullptr;
#endif
}

std::string cpu_model() {
  std::ifstream cpuinfo{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "srbb_perfbench: %s\nusage: srbb_perfbench --workload "
               "transfer_bigstate|dapp_flood|sim_uber_crash --seed N "
               "--seconds S [--trace 0|1] [--spans FILE] [--tiny]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string_view{argv[++i]} == "1";
    } else if (arg == "--spans" && has_value) {
      options.span_path = argv[++i];
    } else {
      return usage("bad argument");
    }
  }
  if (!(options.seconds > 0) || !std::isfinite(options.seconds)) {
    return usage("--seconds must be positive");
  }
  const bool replay =
      options.workload == "transfer_bigstate" || options.workload == "dapp_flood";
  if (!replay && options.workload != "sim_uber_crash") {
    return usage("unknown workload");
  }
  if (const char* why = unfit_build()) {
    std::fprintf(stderr, "srbb_perfbench: refusing to report: %s (%s)\n", why,
                 PERFBENCH_CXX_FLAGS);
    return 3;
  }

  utsname host{};
  uname(&host);
  std::printf("machine: %s, %s %s %s, nproc %u\n", cpu_model().c_str(),
              host.sysname, host.release, host.machine,
              perfbench::available_threads());
  std::printf("build: %s, compiler %s, flags '%s'\n", PERFBENCH_BUILD_TYPE,
              __VERSION__, PERFBENCH_CXX_FLAGS);
  std::printf("run: workload %s seed %llu seconds %.1f trace %d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.tiny ? " (tiny self-check)" : "");
  std::fflush(stdout);

  perfbench::RunReport report;
  if (replay) {
    perfbench::run_replay(options, report);
  } else {
    perfbench::run_sim(options, report);
  }
  for (const std::string& problem : report.problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  const double failed_pct =
      report.attempted == 0 ? 0.0
                            : 100.0 * static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::printf("outputs %s: attempted %llu failed %llu (failed_pct %.4f)\n",
              report.correct ? "correct" : "WRONG",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), failed_pct);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                json_escape(name).c_str(), value.first,
                json_escape(value.second).c_str());
    first = false;
  }
  std::printf("}}\n");
  return report.correct ? 0 : 1;
}

// onoff_perfbench: the repository's end-to-end benchmark binary. One process
// runs one seeded workload for a fixed measuring time, checks every result,
// prints every metric with its sample count, and ends with a one-line JSON
// result. perfbench/README.md describes the workloads and metrics.
//
//   onoff_perfbench --workload mixed_serial|compute_parallel|protocol_lifecycle
//                   --seed N --seconds S [--trace 0|1] [--trace-out PATH]
//                   [--tiny] [--inject root|payout]

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "obs/metrics.h"

namespace {

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "onoff_perfbench: %s\n"
               "usage: onoff_perfbench --workload "
               "mixed_serial|compute_parallel|protocol_lifecycle --seed N "
               "--seconds S [--trace 0|1] [--trace-out PATH] [--tiny] "
               "[--inject root|payout]\n",
               why.c_str());
  return 2;
}

bool ParseU64(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (value == nullptr) return Usage(arg + " needs a value");
    ++i;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      if (!ParseU64(value, &options.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0) || options.seconds > 600) {
        return Usage("--seconds must be in (0, 600]");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      std::string v = value;
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      options.trace = v == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else if (arg == "--inject") {
      options.inject = value;
      if (options.inject != "root" && options.inject != "payout") {
        return Usage("--inject takes root or payout");
      }
    } else {
      return Usage("unknown argument " + arg);
    }
  }
  if (!have_seed || !have_seconds) return Usage("--seed and --seconds are required");
  // The per-layer counters and the protocol workload's block timer live in
  // the global registry.
  if (onoff::obs::Registry::Global() == nullptr) {
    std::fprintf(stderr, "onoff_perfbench: metrics are disabled (ONOFF_METRICS=0)\n");
    return 2;
  }

  void (*run)(const perfbench::Options&, perfbench::Report*) = nullptr;
  if (options.workload == "mixed_serial") {
    run = perfbench::RunMixedSerial;
  } else if (options.workload == "compute_parallel") {
    run = perfbench::RunComputeParallel;
  } else if (options.workload == "protocol_lifecycle") {
    run = perfbench::RunProtocolLifecycle;
  } else {
    return Usage("unknown workload '" + options.workload + "'");
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "hardware_threads=%u\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, perfbench::HardwareThreads());
  perfbench::Report report;
  run(options, &report);
  report.Set("success_rate",
             1.0 - perfbench::Ratio(static_cast<double>(report.failed()),
                                    static_cast<double>(report.attempted())),
             report.attempted());
  report.Set("peak_rss_mb", perfbench::PeakRssMb(), 1);
  return report.Print(options.trace);
}

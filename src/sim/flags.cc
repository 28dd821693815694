#include "sim/flags.h"

#include "support/flags.h"

namespace onoff::sim {

SimFlags SimFlagsFromArgs(int* argc, char** argv) {
  SimFlags out;
  out.seed = flags::U64FlagFromArgs(argc, argv, "sim-seed", out.seed);
  out.latency_ms =
      flags::U64FlagFromArgs(argc, argv, "sim-latency-ms", out.latency_ms);
  out.jitter_ms =
      flags::U64FlagFromArgs(argc, argv, "sim-jitter-ms", out.jitter_ms);
  out.loss = flags::DoubleFlagFromArgs(argc, argv, "sim-loss", out.loss);
  return out;
}

}  // namespace onoff::sim

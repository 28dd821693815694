// The simulator's network flags (--sim-seed, --sim-latency-ms,
// --sim-jitter-ms, --sim-loss), parsed with the shared argv parser in
// support/flags.h so the CLI can layer them on top of its own flags.

#ifndef ONOFFCHAIN_SIM_FLAGS_H_
#define ONOFFCHAIN_SIM_FLAGS_H_

#include <cstdint>

namespace onoff::sim {

struct SimFlags {
  uint64_t seed = 42;
  uint64_t latency_ms = 50;
  uint64_t jitter_ms = 0;
  double loss = 0.0;
};

// Strips the four flags from argv; an unparsable value stays behind for the
// caller's leftover check.
SimFlags SimFlagsFromArgs(int* argc, char** argv);

}  // namespace onoff::sim

#endif  // ONOFFCHAIN_SIM_FLAGS_H_

// The bench/tool JSON emission path. Every bench_* executable and the CLI
// report through WriteBenchJson / the registry's WriteJsonFile so the
// BENCH_*.json files all share one schema and one writer.

#ifndef ONOFFCHAIN_OBS_EXPORT_H_
#define ONOFFCHAIN_OBS_EXPORT_H_

#include <string>

#include "obs/json.h"
#include "obs/metrics.h"
#include "support/status.h"

namespace onoff::obs {

// Writes
//   { "schema": "onoffchain-bench-v1",
//     "bench": <name>,
//     "results": <results>,
//     "metrics": <global registry dump, or null when metrics are disabled> }
// to `path`. `results` carries the bench-specific measured quantities (the
// numbers the paper's tables/figures report); "metrics" carries the
// chain-wide instruments that accumulated while the bench ran.
Status WriteBenchJson(const std::string& path, const std::string& bench_name,
                      Json results);

// Parses and removes the JSON output-path flag from argv with the shared
// parser (support/flags.h), compacting argc.
// One flag, two spellings: "--json <path>" / "--json=<path>" and the alias
// "--metrics-json <path>" / "--metrics-json=<path>" — every bench and CLI
// subcommand documents them identically. Returns the flag value,
// `default_path` when the flag is absent, or "" when the value is "-"
// (meaning: do not write a file). Giving the flag more than once (in either
// spelling) is an InvalidArgument error, not silent last-wins.
Result<std::string> JsonPathFromArgs(int* argc, char** argv,
                                     std::string default_path);

// JsonPathFromArgs for tool main()s: prints the error plus the unified help
// line to stderr and exits with status 2 on invalid usage.
std::string JsonPathFromArgsOrExit(int* argc, char** argv,
                                   std::string default_path);

// The unified help line for tools that document the flag.
inline constexpr char kJsonFlagHelp[] =
    "--json <path>|-   JSON output path (alias: --metrics-json; '-' skips "
    "the file)";

}  // namespace onoff::obs

#endif  // ONOFFCHAIN_OBS_EXPORT_H_

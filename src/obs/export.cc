#include "obs/export.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "support/flags.h"

namespace onoff::obs {

Status WriteBenchJson(const std::string& path, const std::string& bench_name,
                      Json results) {
  Json root = Json::Object();
  root.Set("schema", Json::Str("onoffchain-bench-v1"))
      .Set("bench", Json::Str(bench_name))
      .Set("results", std::move(results));
  Registry* registry = Registry::Global();
  root.Set("metrics",
           registry != nullptr ? registry->ToJson() : Json::Null());
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open bench output file: " + path);
  }
  out << root.Dump();
  if (!out.good()) {
    return Status::Internal("failed writing bench output to " + path);
  }
  return Status::OK();
}

Result<std::string> JsonPathFromArgs(int* argc, char** argv,
                                     std::string default_path) {
  std::string path = std::move(default_path);
  int occurrences =
      flags::StringFlagFromArgs(argc, argv, "json", &path) +
      flags::StringFlagFromArgs(argc, argv, "metrics-json", &path);
  if (occurrences > 1) {
    return Status::InvalidArgument(
        "--json/--metrics-json given " + std::to_string(occurrences) +
        " times; pass the JSON output path exactly once");
  }
  if (path == "-") return std::string();
  return path;
}

std::string JsonPathFromArgsOrExit(int* argc, char** argv,
                                   std::string default_path) {
  Result<std::string> path =
      JsonPathFromArgs(argc, argv, std::move(default_path));
  if (!path.ok()) {
    std::fprintf(stderr, "%s\nusage: %s\n", path.status().message().c_str(),
                 kJsonFlagHelp);
    std::exit(2);
  }
  return *std::move(path);
}

}  // namespace onoff::obs

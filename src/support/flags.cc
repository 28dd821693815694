#include "support/flags.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace onoff::flags {

namespace {

template <typename T>
std::optional<T> ParseWhole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

template <typename T>
T NumberFlagFromArgs(int* argc, char** argv, std::string_view name,
                     T default_value) {
  T value = default_value;
  FlagFromArgs(argc, argv, name, [&value](const char* v) {
    std::optional<T> parsed = ParseWhole<T>(v);
    if (parsed) value = *parsed;
    return parsed.has_value();
  });
  return value;
}

}  // namespace

std::optional<uint64_t> ParseU64(std::string_view text) {
  return ParseWhole<uint64_t>(text);
}

int FlagFromArgs(int* argc, char** argv, std::string_view name,
                 const std::function<bool(const char* value)>& take) {
  const std::string flag = "--" + std::string(name);
  const std::string flag_eq = flag + "=";
  int taken = 0;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], flag_eq.c_str(), flag_eq.size()) == 0 &&
        take(argv[i] + flag_eq.size())) {
      ++taken;
    } else if (flag == argv[i] && i + 1 < *argc && take(argv[i + 1])) {
      ++taken;
      ++i;
    } else {
      argv[out++] = argv[i];
    }
  }
  if (out < *argc) argv[out] = nullptr;
  *argc = out;
  return taken;
}

int StringFlagFromArgs(int* argc, char** argv, std::string_view name,
                       std::string* value) {
  return FlagFromArgs(argc, argv, name, [value](const char* v) {
    *value = v;
    return true;
  });
}

uint64_t U64FlagFromArgs(int* argc, char** argv, std::string_view name,
                         uint64_t default_value) {
  return NumberFlagFromArgs(argc, argv, name, default_value);
}

double DoubleFlagFromArgs(int* argc, char** argv, std::string_view name,
                          double default_value) {
  return NumberFlagFromArgs(argc, argv, name, default_value);
}

bool SwitchFromArgs(int* argc, char** argv, std::string_view name) {
  const std::string flag = "--" + std::string(name);
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (flag != argv[i]) argv[out++] = argv[i];
  }
  const bool found = out < *argc;
  if (found) argv[out] = nullptr;
  *argc = out;
  return found;
}

Status LeftoverArgs(int argc, char** argv, int max_operands) {
  std::string unread;
  int operands = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0 || ++operands > max_operands) {
      unread += std::string(" ") + argv[i];
    }
  }
  if (unread.empty()) return Status::OK();
  return Status::InvalidArgument("argument not understood:" + unread);
}

void ExitOnLeftoverArgs(int argc, char** argv, std::string_view usage) {
  Status st = LeftoverArgs(argc, argv);
  if (st.ok()) return;
  std::fprintf(stderr, "%s: %s\nusage: %s %.*s\n", argv[0],
               st.message().c_str(), argv[0], static_cast<int>(usage.size()),
               usage.data());
  std::exit(2);
}

}  // namespace onoff::flags

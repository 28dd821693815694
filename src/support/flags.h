// The one argv parser of every bench main and the CLI. Each call strips the
// flags it understands from argv, compacting argc ("--<name> <value>" or
// "--<name>=<value>", or a bare "--<name>" switch; the last occurrence
// wins; argv[0] is never touched). A final leftover check rejects what is
// left, so a misspelt flag or a malformed number exits 2 before any work
// starts instead of being ignored.

#ifndef ONOFFCHAIN_SUPPORT_FLAGS_H_
#define ONOFFCHAIN_SUPPORT_FLAGS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "support/status.h"

namespace onoff::flags {

// A whole decimal uint64_t: never "12x", "-1", "+1", "" or an overflow.
std::optional<uint64_t> ParseU64(std::string_view text);

// Removes each occurrence of flag `name` whose value `take` accepts; one it
// refuses, or one missing its value, stays for the leftover check. Returns
// the number removed.
int FlagFromArgs(int* argc, char** argv, std::string_view name,
                 const std::function<bool(const char* value)>& take);
int StringFlagFromArgs(int* argc, char** argv, std::string_view name,
                       std::string* value);
// The last value that parses whole, else `default_value`.
uint64_t U64FlagFromArgs(int* argc, char** argv, std::string_view name,
                         uint64_t default_value);
double DoubleFlagFromArgs(int* argc, char** argv, std::string_view name,
                          double default_value);
bool SwitchFromArgs(int* argc, char** argv, std::string_view name);

// OK when argv[1..argc) holds at most `max_operands` arguments and none
// starts with "--"; otherwise names everything not understood.
Status LeftoverArgs(int argc, char** argv, int max_operands = 0);
// LeftoverArgs(argc, argv) for main()s: on failure prints the error and
// "usage: <argv[0]> <usage>" to stderr and exits 2.
void ExitOnLeftoverArgs(int argc, char** argv, std::string_view usage);

}  // namespace onoff::flags

#endif  // ONOFFCHAIN_SUPPORT_FLAGS_H_

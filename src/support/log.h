// A small structured logging helper: level-filtered printf-style records
// through one mutex-guarded writer, so diagnostics from different threads
// never interleave mid-line. This replaces ad-hoc std::cerr/fprintf(stderr)
// diagnostics across the tools and the chain node.
//
// Format: "[LEVEL] component: message\n" on stderr (or a test-injected
// sink). The level is process-global; it initialises from the environment
// variable ONOFF_LOG_LEVEL (trace|debug|info|warn|error|off) and every tool
// additionally accepts a --log-level flag via LevelFromArgs.
//
// Cost model: ONOFF_LOG expands to a level check before any argument is
// evaluated, so disabled statements cost one load + compare.

#ifndef ONOFFCHAIN_SUPPORT_LOG_H_
#define ONOFFCHAIN_SUPPORT_LOG_H_

#include <cstdio>
#include <optional>
#include <string_view>

namespace onoff::log {

enum class Level : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

const char* LevelName(Level level);
// Parses "trace" / "debug" / "info" / "warn" / "error" / "off"
// (case-insensitive); nullopt on anything else.
std::optional<Level> LevelFromString(std::string_view text);

// The process-global threshold. Records below it are dropped. The initial
// value comes from ONOFF_LOG_LEVEL (default: info).
Level GetLevel();
void SetLevel(Level level);
inline bool Enabled(Level level) { return level >= GetLevel(); }

// Parses and removes "--log-level <value>" / "--log-level=<value>" from
// argv (compacting argc; support/flags.h) and applies it via SetLevel; an
// unknown level stays in argv for the caller's leftover check. Returns the
// applied level (the env/default level when the flag is absent).
Level LevelFromArgs(int* argc, char** argv);

// Emits one record through the single writer. `component` names the
// subsystem ("chain", "cli", "trace", ...).
void Logf(Level level, const char* component, const char* format, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 3, 4)))
#endif
    ;

// Redirects output for tests; nullptr restores stderr.
void SetSinkForTest(FILE* sink);

// An optional secondary consumer of formatted records (the obs flight
// recorder registers here — support cannot depend on obs). Called after the
// level filter with the fully formatted message, outside the writer mutex.
// nullptr detaches. The hook must not call ONOFF_LOG (it would recurse).
using RecordHook = void (*)(Level level, const char* component,
                            const char* message);
void SetRecordHook(RecordHook hook);

}  // namespace onoff::log

// The call-site macro: evaluates arguments only when the level passes.
#define ONOFF_LOG(level, component, ...)                       \
  do {                                                         \
    if (::onoff::log::Enabled(level)) {                        \
      ::onoff::log::Logf(level, component, __VA_ARGS__);       \
    }                                                          \
  } while (0)

#endif  // ONOFFCHAIN_SUPPORT_LOG_H_

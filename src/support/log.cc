#include "support/log.h"

#include <atomic>
#include <cctype>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <string_view>

#include "support/flags.h"

namespace onoff::log {

namespace {

std::atomic<int>& LevelStore() {
  static std::atomic<int> level = [] {
    const char* env = std::getenv("ONOFF_LOG_LEVEL");
    Level initial = env != nullptr ? LevelFromString(env).value_or(Level::kInfo)
                                   : Level::kInfo;
    return static_cast<int>(initial);
  }();
  return level;
}

std::mutex& WriterMutex() {
  static std::mutex mu;
  return mu;
}

std::atomic<FILE*>& SinkStore() {
  static std::atomic<FILE*> sink{nullptr};
  return sink;
}

std::atomic<RecordHook>& RecordHookStore() {
  static std::atomic<RecordHook> hook{nullptr};
  return hook;
}

bool EqualsIgnoreCase(std::string_view a, const char* b) {
  if (a.size() != std::strlen(b)) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) != b[i]) return false;
  }
  return true;
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kTrace:
      return "trace";
    case Level::kDebug:
      return "debug";
    case Level::kInfo:
      return "info";
    case Level::kWarn:
      return "warn";
    case Level::kError:
      return "error";
    case Level::kOff:
      return "off";
  }
  return "unknown";
}

std::optional<Level> LevelFromString(std::string_view text) {
  for (Level level : {Level::kTrace, Level::kDebug, Level::kInfo, Level::kWarn,
                      Level::kError, Level::kOff}) {
    if (EqualsIgnoreCase(text, LevelName(level))) return level;
  }
  return std::nullopt;
}

Level GetLevel() { return static_cast<Level>(LevelStore().load(std::memory_order_relaxed)); }

void SetLevel(Level level) {
  LevelStore().store(static_cast<int>(level), std::memory_order_relaxed);
}

Level LevelFromArgs(int* argc, char** argv) {
  flags::FlagFromArgs(argc, argv, "log-level", [](const char* value) {
    std::optional<Level> level = LevelFromString(value);
    if (level) SetLevel(*level);
    return level.has_value();
  });
  return GetLevel();
}

void Logf(Level level, const char* component, const char* format, ...) {
  if (!Enabled(level)) return;
  char message[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(message, sizeof(message), format, args);
  va_end(args);
  if (RecordHook hook = RecordHookStore().load(std::memory_order_acquire)) {
    hook(level, component, message);
  }
  FILE* sink = SinkStore().load(std::memory_order_acquire);
  if (sink == nullptr) sink = stderr;
  std::lock_guard<std::mutex> lock(WriterMutex());
  std::fprintf(sink, "[%s] %s: %s\n", LevelName(level), component, message);
  std::fflush(sink);
}

void SetRecordHook(RecordHook hook) {
  RecordHookStore().store(hook, std::memory_order_release);
}

void SetSinkForTest(FILE* sink) {
  SinkStore().store(sink, std::memory_order_release);
}

}  // namespace onoff::log

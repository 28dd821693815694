#include "obs/flight_recorder.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "support/log.h"

namespace onoff::obs {

namespace {

std::atomic<FlightRecorder*>& GlobalStore() {
  static std::atomic<FlightRecorder*> recorder{nullptr};
  return recorder;
}

// The ONOFF_LOG mirror: every record that passes the level filter is also a
// flight event, so the bundle shows the log tail without a second sink.
void LogMirror(log::Level level, const char* component, const char* message) {
  FlightRecorder* recorder = GlobalStore().load(std::memory_order_acquire);
  if (recorder == nullptr) return;
  char detail[96];
  std::snprintf(detail, sizeof(detail), "%s: %s", component, message);
  recorder->Record(FlightKind::kLog, 0, static_cast<uint64_t>(level), 0,
                   detail);
}

}  // namespace

const char* FlightKindName(FlightKind kind) {
  switch (kind) {
    case FlightKind::kLog:
      return "log";
    case FlightKind::kPoolAdmit:
      return "pool-admit";
    case FlightKind::kPoolDrop:
      return "pool-drop";
    case FlightKind::kBusDeliver:
      return "bus-deliver";
    case FlightKind::kBusDrop:
      return "bus-drop";
    case FlightKind::kBlockCommit:
      return "block-commit";
    case FlightKind::kSettlement:
      return "settlement";
    case FlightKind::kViolation:
      return "violation";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  ring_.resize(config_.capacity);
}

FlightRecorder* FlightRecorder::Global() {
  return GlobalStore().load(std::memory_order_acquire);
}

FlightRecorder* FlightRecorder::InstallGlobal(FlightRecorder* recorder) {
  FlightRecorder* previous =
      GlobalStore().exchange(recorder, std::memory_order_acq_rel);
  log::SetRecordHook(recorder != nullptr ? &LogMirror : nullptr);
  return previous;
}

void FlightRecorder::Record(FlightKind kind, uint64_t trace_id, uint64_t a,
                            uint64_t b, std::string_view detail) {
  FlightEvent event;
  event.ts_us = Clock::NowUs();
  event.trace_id = trace_id;
  event.a = a;
  event.b = b;
  event.kind = kind;
  size_t n = std::min(detail.size(), sizeof(event.detail) - 1);
  std::memcpy(event.detail, detail.data(), n);
  event.detail[n] = '\0';

  std::lock_guard<std::mutex> lock(mu_);
  event.seq = seq_++;
  ring_[next_] = event;
  next_ = (next_ + 1) % ring_.size();
  ++recorded_;
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (recorded_ <= ring_.size()) {
    return std::vector<FlightEvent>(ring_.begin(), ring_.begin() + recorded_);
  }
  // Full ring: the oldest event sits at `next_`.
  std::vector<FlightEvent> events(ring_.begin() + next_, ring_.end());
  events.insert(events.end(), ring_.begin(), ring_.begin() + next_);
  return events;
}

Json FlightRecorder::TriageBundle(const std::string& reason,
                                  const Json* violation) const {
  Json events = Json::Array();
  for (const FlightEvent& event : Snapshot()) {
    Json e = Json::Object();
    e.Set("seq", Json::Uint(event.seq))
        .Set("ts_us", Json::Uint(event.ts_us))
        .Set("kind", Json::Str(FlightKindName(event.kind)))
        .Set("trace_id", Json::Uint(event.trace_id))
        .Set("a", Json::Uint(event.a))
        .Set("b", Json::Uint(event.b))
        .Set("detail", Json::Str(event.detail));
    events.Push(std::move(e));
  }
  Json root = Json::Object();
  root.Set("schema", Json::Str("onoffchain-flightrec-v1"))
      .Set("reason", Json::Str(reason))
      .Set("ts_us", Json::Uint(Clock::NowUs()))
      .Set("violation", violation != nullptr ? *violation : Json::Null())
      .Set("dropped", Json::Uint(events_dropped()))
      .Set("events", std::move(events));
  Registry* registry = Registry::Global();
  root.Set("metrics",
           registry != nullptr ? registry->ToJson() : Json::Null());
  return root;
}

Status FlightRecorder::DumpTriageBundle(const std::string& path,
                                        const std::string& reason,
                                        const Json* violation) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open flight-recorder dump: " +
                                   path);
  }
  out << TriageBundle(reason, violation).Dump();
  if (!out.good()) {
    return Status::Internal("failed writing flight-recorder dump to " + path);
  }
  return Status::OK();
}

std::string FlightRecorder::DumpOnIncident(const std::string& reason,
                                           const Json* violation) const {
  static std::atomic<uint64_t> incident{0};
  const char* dir = std::getenv("ONOFF_FLIGHTREC_DIR");
  std::string path = dir != nullptr && dir[0] != '\0'
                         ? std::string(dir) + "/"
                         : std::string();
  char name[96];
  // The pid keeps parallel ctest/bench processes sharing one directory from
  // clobbering each other's bundles.
  std::snprintf(name, sizeof(name), "onoffchain-flightrec-%d-%llu.json",
                static_cast<int>(getpid()),
                static_cast<unsigned long long>(
                    incident.fetch_add(1, std::memory_order_relaxed)));
  path += name;
  Status st = DumpTriageBundle(path, reason, violation);
  if (!st.ok()) {
    std::fprintf(stderr, "flight recorder: %s\n", st.ToString().c_str());
    return "";
  }
  ONOFF_LOG(log::Level::kWarn, "obs", "flight-recorder bundle dumped to %s (%s)",
            path.c_str(), reason.c_str());
  return path;
}

uint64_t FlightRecorder::events_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

uint64_t FlightRecorder::events_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(ring_.begin(), ring_.end(), FlightEvent{});
  next_ = 0;
  recorded_ = 0;
}

}  // namespace onoff::obs

// The flight recorder: one bounded ring of recent structured events — log
// lines, pool admits/drops, bus deliveries, block commits, settlements,
// invariant violations — cheap enough to leave on always. Spans live only
// in the tracer's ring; pool, bus, block, settlement and violation events
// carry the trace id current when they were recorded, so a bundle joins a
// trace export on that id. It answers "what was the system doing just
// before this went wrong": on an invariant violation or an equivalence-
// assertion abort, the recorder dumps an `onoffchain-flightrec-v1` triage
// bundle (recent events + a metrics snapshot + the violation report) so a
// red run is diagnosable from the bundle alone.
//
// Cost model: one Record is one short mutex and a fixed-size struct copy
// (no allocation — the detail string is truncated into an inline buffer).
// With no recorder installed, instrumented call sites pay one relaxed load.

#ifndef ONOFFCHAIN_OBS_FLIGHT_RECORDER_H_
#define ONOFFCHAIN_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "support/status.h"

namespace onoff::obs {

enum class FlightKind : uint8_t {
  kLog = 0,        // a = log level; detail = "component: message"
  kPoolAdmit,      // a = nonce, b = pool depth; detail = tx hash prefix
  kPoolDrop,       // a = nonce; detail = drop reason
  kBusDeliver,     // a = payload bytes; detail = topic
  kBusDrop,        // a = payload bytes; detail = topic + reason
  kBlockCommit,    // a = height, b = gas used; detail = state root prefix
  kSettlement,     // a = total gas; detail = settlement name
  kViolation,      // detail = invariant name
};

const char* FlightKindName(FlightKind kind);

// One fixed-size recorded event. `detail` is NUL-terminated and truncated;
// `seq` is the recorder's arrival order (it orders events even when ts_us
// ties under the sim's ms-granular clock).
struct FlightEvent {
  uint64_t seq = 0;
  uint64_t ts_us = 0;
  uint64_t trace_id = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  FlightKind kind = FlightKind::kLog;
  char detail[47] = {0};
};

struct FlightRecorderConfig {
  // Retained events; the oldest is overwritten once the ring is full.
  size_t capacity = 4096;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {});

  // The process-global recorder used by instrumented call sites; nullptr
  // until InstallGlobal. Installing also mirrors ONOFF_LOG records into the
  // recorder (detached again when replaced by nullptr).
  static FlightRecorder* Global();
  // Installs `recorder` (not owned; nullptr detaches). Returns the previous
  // global so owners can restore it.
  static FlightRecorder* InstallGlobal(FlightRecorder* recorder);

  void Record(FlightKind kind, uint64_t trace_id, uint64_t a, uint64_t b,
              std::string_view detail);

  // All retained events, oldest first (ascending seq).
  std::vector<FlightEvent> Snapshot() const;

  // { "schema": "onoffchain-flightrec-v1", "reason": ..., "ts_us": ...,
  //   "violation": <report json or null>, "dropped": <overwritten count>,
  //   "events": [ {seq, ts_us, kind, trace_id, a, b, detail}, ... ],
  //   "metrics": <global registry dump or null> }
  Json TriageBundle(const std::string& reason, const Json* violation) const;
  Status DumpTriageBundle(const std::string& path, const std::string& reason,
                          const Json* violation) const;
  // Dumps into $ONOFF_FLIGHTREC_DIR (default: cwd) as
  // "onoffchain-flightrec-<n>.json"; returns the path ("" on failure). This
  // is the incident hook — violations and equivalence aborts call it.
  std::string DumpOnIncident(const std::string& reason,
                             const Json* violation) const;

  uint64_t events_recorded() const;
  // Events overwritten by ring wrap since the last Clear.
  uint64_t events_dropped() const;
  void Clear();
  const FlightRecorderConfig& config() const { return config_; }

 private:
  FlightRecorderConfig config_;
  mutable std::mutex mu_;
  std::vector<FlightEvent> ring_;  // capacity-sized, wraps at next_
  size_t next_ = 0;
  uint64_t recorded_ = 0;  // since the last Clear
  uint64_t seq_ = 0;       // since construction
};

// The call-site helper: one relaxed load when no recorder is installed.
inline void FlightRecord(FlightKind kind, uint64_t trace_id, uint64_t a,
                         uint64_t b, std::string_view detail) {
  if (FlightRecorder* recorder = FlightRecorder::Global()) {
    recorder->Record(kind, trace_id, a, b, detail);
  }
}

}  // namespace onoff::obs

#endif  // ONOFFCHAIN_OBS_FLIGHT_RECORDER_H_

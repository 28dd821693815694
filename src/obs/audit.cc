#include "obs/audit.h"

#include <cstdlib>

#include "obs/clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "support/log.h"

namespace onoff::obs {

namespace {

// Reports retained for inspection; later ones are still counted.
constexpr size_t kKeptReports = 64;

}  // namespace

Json ViolationReport::ToJson() const {
  Json values_json = Json::Object();
  for (const auto& [name, value] : values) {
    values_json.Set(name, Json::Str(value));
  }
  Json root = Json::Object();
  root.Set("invariant", Json::Str(invariant))
      .Set("message", Json::Str(message))
      .Set("trace_id", Json::Uint(trace_id))
      .Set("block_height", Json::Uint(block_height))
      .Set("tx_hash", Json::Str(tx_hash))
      .Set("ts_us", Json::Uint(ts_us))
      .Set("values", std::move(values_json));
  return root;
}

std::string ViolationReport::ToString() const {
  std::string out = "invariant '" + invariant + "' violated at block " +
                    std::to_string(block_height) + ": " + message;
  if (!tx_hash.empty()) out += " (tx " + tx_hash + ")";
  if (trace_id != 0) out += " [trace " + std::to_string(trace_id) + "]";
  for (const auto& [name, value] : values) {
    out += " " + name + "=" + value;
  }
  return out;
}

Auditor::Auditor(AuditorConfig config) : config_(std::move(config)) {}

void Auditor::Report(ViolationReport report) {
  report.ts_us = Clock::NowUs();
  ONOFF_LOG(log::Level::kError, "audit", "%s", report.ToString().c_str());
  if (Registry* registry = Registry::Global()) {
    registry->GetCounter("audit.violations")->Inc();
    registry->GetCounter("audit.violations." + report.invariant)->Inc();
  }
  FlightRecord(FlightKind::kViolation, report.trace_id, report.block_height,
               0, report.invariant);
  Json report_json = report.ToJson();
  bool first_of_invariant = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++total_;
    first_of_invariant = seen_.insert(report.invariant).second;
    if (reports_.size() < kKeptReports) {
      reports_.push_back(std::move(report));
    }
  }
  if (config_.dump_flight && first_of_invariant) {
    if (FlightRecorder* recorder = FlightRecorder::Global()) {
      recorder->DumpOnIncident("invariant-violation", &report_json);
    }
  }
  if (config_.fail_fast) {
    ONOFF_LOG(log::Level::kError, "audit",
              "fail-fast: aborting on invariant violation");
    std::abort();
  }
}

uint64_t Auditor::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::vector<ViolationReport> Auditor::Reports() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reports_;
}

void Auditor::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  reports_.clear();
  total_ = 0;
}

}  // namespace onoff::obs

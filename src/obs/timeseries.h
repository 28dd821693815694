// The time-series sampler: periodic snapshots of a metrics Registry into
// ring-buffered series. Sampling reads obs::Clock, so series are stamped in
// wall time normally and in virtual time under the simulator. Export derives
// what raw instruments cannot answer directly — counter deltas per interval
// and quantiles from histogram buckets — as `onoffchain-timeseries-v1`, and
// the `onoffchain_cli health` subcommand renders the latest sample as a
// one-screen summary.
//
// No background thread: owners drive Tick() from their own cadence (the
// chain ticks at block commit), which keeps simulated runs deterministic.

#ifndef ONOFFCHAIN_OBS_TIMESERIES_H_
#define ONOFFCHAIN_OBS_TIMESERIES_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>

#include "obs/json.h"
#include "obs/metrics.h"

namespace onoff::obs {

struct TimeseriesConfig {
  // Minimum obs::Clock ms between samples taken via Tick().
  uint64_t interval_ms = 250;
  // Samples retained; the oldest fall off.
  size_t capacity = 512;
};

class TimeseriesSampler {
 public:
  // `registry` may be nullptr (metrics disabled): every call is a no-op.
  TimeseriesSampler(Registry* registry, TimeseriesConfig config = {});

  // Samples when interval_ms has elapsed since the last sample (first call
  // always samples). Returns true when a sample was taken.
  bool Tick();
  void SampleNow();

  size_t samples() const;

  // { "schema": "onoffchain-timeseries-v1", "interval_ms": ..., "samples": n,
  //   "counters":   { name: [ {ts_us, value, delta}, ... ] },
  //   "gauges":     { name: [ {ts_us, value}, ... ] },
  //   "histograms": { name: [ {ts_us, count, sum, p50, p90, p99}, ... ] } }
  Json ToJson() const;
  Status WriteJsonFile(const std::string& path) const;

  // Point reads over the latest sample for the health summary. nullopt when
  // no sample or no such instrument.
  std::optional<uint64_t> LatestCounter(const std::string& name) const;
  std::optional<double> LatestQuantile(const std::string& name,
                                       double q) const;
  // Rate of a counter over the whole retained window, per obs::Clock
  // second; nullopt when fewer than two samples or no elapsed time.
  std::optional<double> CounterRatePerSec(const std::string& name) const;

  void Clear();
  const TimeseriesConfig& config() const { return config_; }

 private:
  struct Sample {
    uint64_t ts_us = 0;
    Registry::InstrumentSnapshot snapshot;
  };

  Registry* registry_;
  TimeseriesConfig config_;
  mutable std::mutex mu_;
  std::deque<Sample> samples_;
  uint64_t last_sample_ms_ = 0;
  bool sampled_once_ = false;
};

}  // namespace onoff::obs

#endif  // ONOFFCHAIN_OBS_TIMESERIES_H_

// Low-overhead metrics and tracing: monotonic counters, gauges, fixed-bucket
// histograms, RAII scoped-span timers, and a thread-safe Registry with a
// JSON exporter (the single code path every bench and tool reports through).
//
// Cost model: instruments are looked up by name once (cache the pointer at
// the call site) and updated with one relaxed atomic op; histograms take a
// short mutex. When metrics are disabled — compile with -DONOFF_METRICS=0 or
// run with the environment variable ONOFF_METRICS=0 — Registry::Global()
// returns nullptr and every cached-pointer call site reduces to one
// never-taken branch.

#ifndef ONOFFCHAIN_OBS_METRICS_H_
#define ONOFFCHAIN_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/clock.h"
#include "obs/json.h"
#include "support/status.h"

#ifndef ONOFF_METRICS
#define ONOFF_METRICS 1
#endif

namespace onoff::obs {

// A monotonically increasing counter.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// An instantaneous signed value (pool depth, queue length, ...).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// A histogram over fixed, sorted upper-bound bucket boundaries; an implicit
// +Inf bucket catches the overflow. Also tracks count/sum/min/max.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  uint64_t Count() const;
  double Sum() const;
  double Min() const;  // 0 when empty
  double Max() const;  // 0 when empty
  const std::vector<double>& Bounds() const { return bounds_; }
  // bounds_.size() + 1 entries; the last is the +Inf bucket.
  std::vector<uint64_t> BucketCounts() const;

  // All fields read under one lock — the only way to get a consistent view
  // (separate Count()/BucketCounts() calls can tear against a concurrent
  // Observe). The JSON exporter and the time-series sampler use this.
  struct Snapshot {
    uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    std::vector<uint64_t> buckets;
  };
  Snapshot TakeSnapshot() const;

  // Linear interpolation within the bucket holding quantile `q` (0..1);
  // bounded by the bucket edges, 0 when empty. Bucket-resolution accuracy —
  // good enough for health summaries, not for billing.
  static double QuantileFromBuckets(const std::vector<double>& bounds,
                                    const std::vector<uint64_t>& buckets,
                                    double q);

 private:
  const std::vector<double> bounds_;
  mutable std::mutex mu_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// Bucket boundary helpers.
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);
// 1us .. ~16s in powers of 4 — wall-time spans.
const std::vector<double>& DefaultTimeBucketsUs();
// 1k .. ~8M gas in powers of 2 — per-transaction / per-call gas.
const std::vector<double>& DefaultGasBuckets();

// A thread-safe named-instrument registry. Instruments are created on first
// use and live as long as the registry, so returned pointers are stable and
// safe to cache. Code uses the process-global instance via Global().
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The process-global registry, or nullptr when metrics are disabled
  // (compiled out or ONOFF_METRICS=0 in the environment).
  static Registry* Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  // The bucket bounds are fixed on first creation; later calls with the
  // same name return the existing histogram regardless of `bounds`.
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds);

  // Point reads; 0 when the instrument does not exist.
  uint64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;

  // JSON export:
  //   { "schema": "onoffchain-metrics-v1",
  //     "counters":  { name: value, ... },
  //     "gauges":    { name: value, ... },
  //     "histograms":{ name: { count, sum, min, max,
  //                            buckets: [ {le, count}, ... ] }, ... } }
  Json ToJson() const;
  std::string ToJsonString() const { return ToJson().Dump(); }
  Status WriteJsonFile(const std::string& path) const;

  // A point-in-time copy of every instrument, names sorted (map order).
  // Counters/gauges are single relaxed loads; each histogram is copied under
  // its own lock, so no individual instrument is torn. The time-series
  // sampler stores these.
  struct InstrumentSnapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, int64_t>> gauges;
    struct HistogramEntry {
      std::string name;
      std::vector<double> bounds;
      Histogram::Snapshot data;
    };
    std::vector<HistogramEntry> histograms;
  };
  InstrumentSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Call-site helpers: resolve against the global registry, nullptr when
// disabled. Cache the result in a function-local static:
//   static obs::Counter* c = obs::GetCounterOrNull("chain.blocks_mined");
//   if (c) c->Inc();
inline Counter* GetCounterOrNull(const std::string& name) {
  Registry* r = Registry::Global();
  return r != nullptr ? r->GetCounter(name) : nullptr;
}
inline Gauge* GetGaugeOrNull(const std::string& name) {
  Registry* r = Registry::Global();
  return r != nullptr ? r->GetGauge(name) : nullptr;
}
inline Histogram* GetHistogramOrNull(const std::string& name,
                                     std::vector<double> bounds) {
  Registry* r = Registry::Global();
  return r != nullptr ? r->GetHistogram(name, std::move(bounds)) : nullptr;
}

// RAII span: observes its lifetime in microseconds into a histogram (which
// may be nullptr — the span then only carries ElapsedUs for the caller).
// Reads obs::Clock, so timers follow the sim's virtual clock during
// simulations instead of mixing wall durations into virtual-time exports.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist)
      : hist_(hist), start_us_(Clock::NowUs()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (hist_ != nullptr) hist_->Observe(ElapsedUs());
  }

  double ElapsedUs() const {
    return static_cast<double>(Clock::NowUs() - start_us_);
  }

 private:
  Histogram* hist_;
  uint64_t start_us_;
};

}  // namespace onoff::obs

#endif  // ONOFFCHAIN_OBS_METRICS_H_

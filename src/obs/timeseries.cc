#include "obs/timeseries.h"

#include <algorithm>
#include <fstream>

#include "obs/clock.h"

namespace onoff::obs {

namespace {

// The previous sample's value for `name`, for delta derivation; nullopt in
// the first sample or when the instrument appeared mid-window.
std::optional<uint64_t> CounterIn(
    const Registry::InstrumentSnapshot& snapshot, const std::string& name) {
  for (const auto& [n, v] : snapshot.counters) {
    if (n == name) return v;
  }
  return std::nullopt;
}

}  // namespace

TimeseriesSampler::TimeseriesSampler(Registry* registry,
                                     TimeseriesConfig config)
    : registry_(registry), config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  if (config_.interval_ms == 0) config_.interval_ms = 1;
}

bool TimeseriesSampler::Tick() {
  if (registry_ == nullptr) return false;
  uint64_t now_ms = Clock::NowUs() / 1000;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A clock regression (a fresh virtual scheduler bound mid-stream) resets
    // the cadence instead of silencing the sampler.
    if (sampled_once_ && now_ms >= last_sample_ms_ &&
        now_ms < last_sample_ms_ + config_.interval_ms) {
      return false;
    }
  }
  SampleNow();
  return true;
}

void TimeseriesSampler::SampleNow() {
  if (registry_ == nullptr) return;
  Sample sample;
  sample.ts_us = Clock::NowUs();
  sample.snapshot = registry_->Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  last_sample_ms_ = sample.ts_us / 1000;
  sampled_once_ = true;
  samples_.push_back(std::move(sample));
  while (samples_.size() > config_.capacity) samples_.pop_front();
}

size_t TimeseriesSampler::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.size();
}

Json TimeseriesSampler::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json counters = Json::Object();
  Json gauges = Json::Object();
  Json histograms = Json::Object();
  // Series keyed by the union of names across samples (instruments appear on
  // first use); keys come from the latest sample for a stable layout.
  if (!samples_.empty()) {
    const Registry::InstrumentSnapshot& latest = samples_.back().snapshot;
    for (const auto& [name, unused] : latest.counters) {
      (void)unused;
      Json points = Json::Array();
      std::optional<uint64_t> previous;
      for (const Sample& sample : samples_) {
        std::optional<uint64_t> value = CounterIn(sample.snapshot, name);
        if (!value.has_value()) continue;
        Json point = Json::Object();
        point.Set("ts_us", Json::Uint(sample.ts_us))
            .Set("value", Json::Uint(*value));
        if (previous.has_value() && *value >= *previous) {
          point.Set("delta", Json::Uint(*value - *previous));
        }
        previous = value;
        points.Push(std::move(point));
      }
      counters.Set(name, std::move(points));
    }
    for (const auto& [name, unused] : latest.gauges) {
      (void)unused;
      Json points = Json::Array();
      for (const Sample& sample : samples_) {
        for (const auto& [n, v] : sample.snapshot.gauges) {
          if (n != name) continue;
          Json point = Json::Object();
          point.Set("ts_us", Json::Uint(sample.ts_us))
              .Set("value", Json::Int(v));
          points.Push(std::move(point));
        }
      }
      gauges.Set(name, std::move(points));
    }
    for (const auto& latest_entry : latest.histograms) {
      Json points = Json::Array();
      for (const Sample& sample : samples_) {
        for (const auto& entry : sample.snapshot.histograms) {
          if (entry.name != latest_entry.name) continue;
          Json point = Json::Object();
          point.Set("ts_us", Json::Uint(sample.ts_us))
              .Set("count", Json::Uint(entry.data.count))
              .Set("sum", Json::Num(entry.data.sum))
              .Set("p50", Json::Num(Histogram::QuantileFromBuckets(
                              entry.bounds, entry.data.buckets, 0.50)))
              .Set("p90", Json::Num(Histogram::QuantileFromBuckets(
                              entry.bounds, entry.data.buckets, 0.90)))
              .Set("p99", Json::Num(Histogram::QuantileFromBuckets(
                              entry.bounds, entry.data.buckets, 0.99)));
          points.Push(std::move(point));
        }
      }
      histograms.Set(latest_entry.name, std::move(points));
    }
  }
  Json root = Json::Object();
  root.Set("schema", Json::Str("onoffchain-timeseries-v1"))
      .Set("interval_ms", Json::Uint(config_.interval_ms))
      .Set("samples", Json::Uint(samples_.size()))
      .Set("counters", std::move(counters))
      .Set("gauges", std::move(gauges))
      .Set("histograms", std::move(histograms));
  return root;
}

Status TimeseriesSampler::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open timeseries output file: " +
                                   path);
  }
  out << ToJson().Dump();
  if (!out.good()) {
    return Status::Internal("failed writing timeseries to " + path);
  }
  return Status::OK();
}

std::optional<uint64_t> TimeseriesSampler::LatestCounter(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return std::nullopt;
  return CounterIn(samples_.back().snapshot, name);
}

std::optional<double> TimeseriesSampler::LatestQuantile(
    const std::string& name, double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return std::nullopt;
  for (const auto& entry : samples_.back().snapshot.histograms) {
    if (entry.name != name) continue;
    if (entry.data.count == 0) return std::nullopt;
    return Histogram::QuantileFromBuckets(entry.bounds, entry.data.buckets,
                                          q);
  }
  return std::nullopt;
}

std::optional<double> TimeseriesSampler::CounterRatePerSec(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < 2) return std::nullopt;
  std::optional<uint64_t> first = CounterIn(samples_.front().snapshot, name);
  std::optional<uint64_t> last = CounterIn(samples_.back().snapshot, name);
  if (!first.has_value() || !last.has_value() || *last < *first) {
    return std::nullopt;
  }
  uint64_t elapsed_us = samples_.back().ts_us - samples_.front().ts_us;
  if (elapsed_us == 0) return std::nullopt;
  return static_cast<double>(*last - *first) * 1e6 /
         static_cast<double>(elapsed_us);
}

void TimeseriesSampler::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.clear();
  last_sample_ms_ = 0;
  sampled_once_ = false;
}

}  // namespace onoff::obs

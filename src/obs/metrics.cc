#include "obs/metrics.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace onoff::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  size_t idx =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  std::lock_guard<std::mutex> lock(mu_);
  ++buckets_[idx];
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
  sum_ += value;
}

uint64_t Histogram::Count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::Sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::Min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_;
}

double Histogram::Max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buckets_;
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.count = count_;
  snap.sum = sum_;
  snap.min = min_;
  snap.max = max_;
  snap.buckets = buckets_;
  return snap;
}

double Histogram::QuantileFromBuckets(const std::vector<double>& bounds,
                                      const std::vector<uint64_t>& buckets,
                                      double q) {
  uint64_t total = 0;
  for (uint64_t c : buckets) total += c;
  if (total == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // The rank-th observation (1-based) in cumulative bucket order.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    uint64_t before = cumulative;
    cumulative += buckets[i];
    if (cumulative < rank) continue;
    // Interpolate inside bucket i: [lower, upper] holds buckets[i]
    // observations assumed uniform.
    double lower = i == 0 ? 0 : bounds[i - 1];
    // The +Inf bucket has no upper edge; report its lower edge.
    if (i >= bounds.size()) return lower;
    double upper = bounds[i];
    double fraction = static_cast<double>(rank - before) /
                      static_cast<double>(buckets[i]);
    return lower + (upper - lower) * fraction;
  }
  return 0;
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double v = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(v);
    v *= factor;
  }
  return bounds;
}

const std::vector<double>& DefaultTimeBucketsUs() {
  static const std::vector<double> kBuckets =
      ExponentialBuckets(1.0, 4.0, 13);  // 1us .. ~16.8s
  return kBuckets;
}

const std::vector<double>& DefaultGasBuckets() {
  static const std::vector<double> kBuckets =
      ExponentialBuckets(1000.0, 2.0, 14);  // 1k .. 8.192M gas
  return kBuckets;
}

Registry* Registry::Global() {
#if !ONOFF_METRICS
  return nullptr;
#else
  static Registry* const instance = [] {
    const char* env = std::getenv("ONOFF_METRICS");
    if (env != nullptr && std::strcmp(env, "0") == 0) {
      return static_cast<Registry*>(nullptr);
    }
    return new Registry();
  }();
  return instance;
#endif
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

uint64_t Registry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->Value();
}

int64_t Registry::GaugeValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->Value();
}

Registry::InstrumentSnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  InstrumentSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->Value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->Value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    InstrumentSnapshot::HistogramEntry entry;
    entry.name = name;
    entry.bounds = h->Bounds();
    entry.data = h->TakeSnapshot();
    snap.histograms.push_back(std::move(entry));
  }
  return snap;
}

Json Registry::ToJson() const {
  InstrumentSnapshot snap = Snapshot();
  Json counters = Json::Object();
  for (const auto& [name, value] : snap.counters) {
    counters.Set(name, Json::Uint(value));
  }
  Json gauges = Json::Object();
  for (const auto& [name, value] : snap.gauges) {
    gauges.Set(name, Json::Int(value));
  }
  Json histograms = Json::Object();
  for (const auto& entry : snap.histograms) {
    Json buckets = Json::Array();
    for (size_t i = 0; i < entry.data.buckets.size(); ++i) {
      Json bucket = Json::Object();
      bucket.Set("le", i < entry.bounds.size()
                           ? Json::Num(entry.bounds[i])
                           : Json::Str("+Inf"));
      bucket.Set("count", Json::Uint(entry.data.buckets[i]));
      buckets.Push(std::move(bucket));
    }
    Json histogram = Json::Object();
    histogram.Set("count", Json::Uint(entry.data.count))
        .Set("sum", Json::Num(entry.data.sum))
        .Set("min", Json::Num(entry.data.min))
        .Set("max", Json::Num(entry.data.max))
        .Set("buckets", std::move(buckets));
    histograms.Set(entry.name, std::move(histogram));
  }
  Json root = Json::Object();
  root.Set("schema", Json::Str("onoffchain-metrics-v1"))
      .Set("counters", std::move(counters))
      .Set("gauges", std::move(gauges))
      .Set("histograms", std::move(histograms));
  return root;
}

Status Registry::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open metrics output file: " + path);
  }
  out << ToJsonString();
  if (!out.good()) {
    return Status::Internal("failed writing metrics to " + path);
  }
  return Status::OK();
}

}  // namespace onoff::obs
